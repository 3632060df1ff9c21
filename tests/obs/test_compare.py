"""Tests for the metrics diff / perf-gate tooling."""

import copy
import json

import pytest

from repro.formats.csr import CSRGraph
from repro.obs.compare import (
    OPTIONAL_SECTIONS,
    check_sections,
    compare_metrics,
    flatten_metrics,
    format_comparison,
    load_metrics,
)
from repro.obs.metrics import dump_metrics, run_metrics
from repro.traversal.backends import CSRBackend
from repro.traversal.bfs import bfs


@pytest.fixture
def metrics_payload(small_graph, scaled_device):
    backend = CSRBackend(CSRGraph.from_graph(small_graph), scaled_device)
    bfs(backend, 0)
    return run_metrics(backend.engine, meta={"algo": "bfs"})


class TestFlatten:
    def test_skips_identity_sections(self, metrics_payload):
        flat = flatten_metrics(metrics_payload)
        assert not any(k.startswith(("meta", "schema", "device")) for k in flat)
        assert any(k.startswith("totals.") for k in flat)
        assert any(k.startswith("kernels.") for k in flat)

    def test_leaves_are_floats(self, metrics_payload):
        assert all(
            isinstance(v, float) for v in flatten_metrics(metrics_payload).values()
        )


class TestCompare:
    def test_identical_runs_zero_deltas(self, metrics_payload):
        cmp = compare_metrics(metrics_payload, copy.deepcopy(metrics_payload))
        assert cmp.ok
        assert cmp.changed == []
        assert "metrically identical" in format_comparison(cmp)

    def test_meta_differences_ignored(self, metrics_payload):
        other = copy.deepcopy(metrics_payload)
        other["meta"]["algo"] = "something-else"
        assert compare_metrics(metrics_payload, other).ok

    def test_regression_flagged(self, metrics_payload):
        other = copy.deepcopy(metrics_payload)
        other["totals"]["elapsed_seconds"] *= 1.5
        cmp = compare_metrics(metrics_payload, other, threshold=0.02)
        assert not cmp.ok
        keys = [r.key for r in cmp.regressions]
        assert "totals.elapsed_seconds" in keys
        assert "totals.elapsed_seconds" in format_comparison(cmp)

    def test_change_below_threshold_ok(self, metrics_payload):
        other = copy.deepcopy(metrics_payload)
        other["totals"]["elapsed_seconds"] *= 1.01
        cmp = compare_metrics(metrics_payload, other, threshold=0.02)
        assert cmp.ok
        assert cmp.changed  # the delta is reported, just not gating

    def test_missing_key_compares_against_zero(self, metrics_payload):
        base = copy.deepcopy(metrics_payload)
        base["counters"]["synthetic"] = 5.0
        cmp = compare_metrics(base, metrics_payload, threshold=0.5)
        assert not cmp.ok  # a key dropping to 0 is a 100% regression
        (row,) = [r for r in cmp.regressions if r.key == "counters.synthetic"]
        assert row.b == 0.0

    def test_new_key_is_infinite_rel(self, metrics_payload):
        other = copy.deepcopy(metrics_payload)
        other["counters"]["brand_new"] = 42.0
        cmp = compare_metrics(metrics_payload, other, threshold=10.0)
        (row,) = [r for r in cmp.rows if r.key == "counters.brand_new"]
        assert row.rel == float("inf")
        assert not cmp.ok


class TestSectionGuard:
    def test_one_sided_section_refused_by_name(self, metrics_payload):
        # A serve dump (with the telemetry "service" section) diffed
        # against a pre-observability dump is a different workload, not
        # a regression: refuse, naming the offending section.
        with_service = copy.deepcopy(metrics_payload)
        with_service["service"] = {"rates": {"miss_rate": 0.0}}
        with pytest.raises(ValueError, match="service"):
            compare_metrics(metrics_payload, with_service)
        with pytest.raises(
            ValueError, match="only in first dump: service"
        ):
            compare_metrics(with_service, metrics_payload)

    def test_error_names_both_sides(self, metrics_payload):
        a = copy.deepcopy(metrics_payload)
        b = copy.deepcopy(metrics_payload)
        a["service"] = {}
        b["serve"] = {}
        with pytest.raises(
            ValueError,
            match="only in first dump: service; only in second dump: serve",
        ):
            check_sections(a, b)

    def test_schema_growth_sections_exempt(self, metrics_payload):
        # A dist dump legitimately lacks arrays/hw_counters and an
        # unprofiled run lacks critical_path/whatif: still comparable.
        older = copy.deepcopy(metrics_payload)
        for section in OPTIONAL_SECTIONS:
            older.pop(section, None)
        cmp = compare_metrics(older, metrics_payload)  # must not raise
        assert any(r.key.startswith("hw_counters.") for r in cmp.rows)

    def test_matching_sections_pass(self, metrics_payload):
        check_sections(metrics_payload, copy.deepcopy(metrics_payload))


class TestLoad:
    def test_round_trip(self, metrics_payload, tmp_path):
        path = tmp_path / "m.json"
        dump_metrics(metrics_payload, str(path))
        loaded = load_metrics(str(path))
        assert flatten_metrics(loaded) == flatten_metrics(metrics_payload)

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/9"}))
        with pytest.raises(ValueError, match="schema"):
            load_metrics(str(path))

    def test_v1_dump_refused(self, metrics_payload, tmp_path, capsys):
        # Only the current schema is read: a /1 dump is refused like any
        # unknown schema, by the loader and by `repro compare` (exit 2).
        from repro.cli import main

        v1 = copy.deepcopy(metrics_payload)
        v1["schema"] = "repro.metrics/1"
        path = tmp_path / "v1.json"
        dump_metrics(v1, str(path))
        with pytest.raises(ValueError, match="'repro.metrics/1'"):
            load_metrics(str(path))
        current = tmp_path / "v2.json"
        dump_metrics(metrics_payload, str(current))
        assert main(["compare", str(path), str(current)]) == 2
        assert "'repro.metrics/1'" in capsys.readouterr().err
