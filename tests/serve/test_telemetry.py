"""Service telemetry: determinism, exact quantiles, report and section.

Two identical drives dump byte-identical ``service`` sections, and
every percentile is the exact numpy order statistic of the values
recomputed from the service's results.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.datasets.rmat import rmat_graph
from repro.gpusim.device import TITAN_XP
from repro.serve import (
    GraphService,
    drive,
    make_labeled_stream,
    parse_deadline_mix,
    serve_report,
)
from repro.serve.telemetry import Samples

MIX = (None, 0.5e-3, None, 1e-9)  # patient, 0.5ms, patient, 1ns


def _drive_once(graph, *, queries=120, burst=48, **service_kw):
    service = GraphService.from_graph(
        graph, fmt="efg", cache_kb=256, **service_kw
    )
    sources, classes = make_labeled_stream(
        graph.num_nodes, queries, hot_fraction=0.5, seed=11
    )
    drive(service, sources, deadline_mix=MIX, burst=burst, classes=classes)
    return service


class TestDeterminism:
    def test_two_drives_byte_identical(self, small_graph):
        sections = [
            json.dumps(_drive_once(small_graph).service_section(),
                       sort_keys=True)
            for _ in range(2)
        ]
        assert sections[0] == sections[1]

    def test_sketch_dumps_byte_identical(self, small_graph):
        a = _drive_once(small_graph).telemetry
        b = _drive_once(small_graph).telemetry
        for name in ("latency", "queue_wait", "wave_lanes"):
            sa, sb = getattr(a, name), getattr(b, name)
            assert sa.summary() == sb.summary()


class TestSamples:
    def test_min_max_sum_exact(self):
        values = [3.0, 1.0, 2.0, 0.1, 0.2]
        sample = Samples(values)
        assert sample.count == 5
        assert sample.min == 0.1
        assert sample.max == 3.0
        assert sample.sum == math.fsum(values)
        assert sample.mean == math.fsum(values) / 5

    def test_extremes(self):
        sample = Samples([2.0, 3.0, 1.0])
        assert sample.quantile(0.0) == 1.0
        assert sample.quantile(1.0) == 3.0

    def test_quantile_is_numpy_higher(self):
        values = np.random.default_rng(7).lognormal(-1.0, 2.0, size=999)
        sample = Samples(values)
        for q in (0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0):
            assert sample.quantile(q) == float(
                np.quantile(values, q, method="higher")
            ), q

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            Samples([]).quantile(0.5)

    def test_bad_q_raises(self):
        with pytest.raises(ValueError):
            Samples([1.0]).quantile(1.5)

    def test_summary_keys(self):
        assert set(Samples([1.0]).summary()) == {
            "count", "sum", "mean", "min", "max", "p50", "p95", "p99",
        }
        assert set(Samples([]).summary().values()) == {0.0}

    def test_insertion_order_invisible(self):
        values = [0.5, 3.0, 0.5, 9.0, 1e-3]
        assert Samples(values).summary() == Samples(values[::-1]).summary()


class TestExactQuantiles:
    """The bench suite's ``serve/p99`` drive, quantiles checked exactly."""

    def test_p99_stream_quantiles_are_order_statistics(self):
        graph = rmat_graph(scale=9, edge_factor=8, seed=3)
        service = GraphService.from_graph(
            graph, fmt="efg", device=TITAN_XP.scaled(2048.0),
            cache_kb=256, max_wave=32,
        )
        sources, classes = make_labeled_stream(
            graph.num_nodes, 200, hot_fraction=0.5, hot_set_size=8, seed=42
        )
        drive(
            service, sources,
            deadline_mix=parse_deadline_mix("none,0.5,none,0.001"),
            burst=96, classes=classes,
        )
        section = service.service_section()
        for name in ("latency", "queue_wait", "wave_lanes"):
            s = section[name]
            assert (s["min"] <= s["p50"] <= s["p95"] <= s["p99"]
                    <= s["max"]), (name, s)

        served = [r for r in service.results if r.ok]
        waves: dict[int, set[int]] = {}
        for r in service.results:
            if r.status == "done":
                waves.setdefault(r.wave, set()).add(r.source)
        recomputed = {
            "latency": [r.completed_s - r.submitted_s for r in served],
            "queue_wait": [r.started_s - r.submitted_s for r in served],
            "wave_lanes": [len(lanes) for lanes in waves.values()],
        }
        assert len(waves) == service.num_waves
        for name, values in recomputed.items():
            s = section[name]
            assert s["count"] == len(values)
            for q, key in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
                truth = float(np.quantile(values, q, method="higher"))
                assert s[key] == truth, (name, key)
        for key in ("p50", "p95", "p99"):
            assert section["wave_lanes"][key].is_integer()


class TestServeReport:
    def test_lru_and_admission_counters_surface(self, small_graph):
        # Tiny LRU + tiny queue: forces evictions and rejects so every
        # counter in the report is exercised.
        service = _drive_once(
            small_graph, queries=300,
            result_cache_entries=8, max_pending=32,
        )
        report = serve_report(service)
        assert "result lru:" in report
        assert "evictions" in report
        assert "admission:" in report
        assert "queue bound 32" in report
        assert "(bound 8)" in report
        counters = service.backend.engine.metrics.counters
        assert counters.get("serve.cache.evictions", 0) > 0
        assert f"{int(counters['serve.cache.evictions'])} evictions" in report
        assert "throughput:" in report

    def test_report_deterministic(self, small_graph):
        assert serve_report(_drive_once(small_graph)) == serve_report(
            _drive_once(small_graph)
        )


class TestSectionShape:
    def test_service_section_numeric_only(self, small_graph):
        section = _drive_once(small_graph).service_section()

        def walk(node):
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            else:
                assert isinstance(node, float), node

        walk(section)
        assert set(section) == {
            "latency", "queue_wait", "wave_lanes", "outcomes",
            "by_class", "rates",
        }
        assert set(section["by_class"]) == {"hot", "cold"}
        assert section["rates"]["hit_rate"] > 0  # hot set repeats
