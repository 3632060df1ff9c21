"""Tests for the pinned bench suite and the BENCH_<n>.json trajectory."""

import json

import pytest

from repro.bench.trajectory import (
    BENCH_SCHEMA,
    BenchConfig,
    bench_payload,
    compare_bench,
    load_bench,
    next_seq,
    run_bench_suite,
    write_bench,
)

# One shrunk suite per module: the real pinned config is exercised by
# the CLI smoke in CI; these tests only need the machinery.
SMALL = BenchConfig(rmat_scale=7, edge_factor=4, seed=3)


@pytest.fixture(scope="module")
def workloads():
    return run_bench_suite(SMALL)


@pytest.fixture(scope="module")
def payload(workloads):
    return bench_payload(workloads, seq=1, config=SMALL)


class TestSuite:
    def test_all_thirteen_workloads(self, workloads):
        single = [
            f"{algo}/{fmt}"
            for algo in ("bfs", "sssp", "pagerank")
            for fmt in ("csr", "efg", "cgr")
        ]
        dist = [f"dist_bfs/{wire}" for wire in ("raw", "ef")]
        assert sorted(workloads) == sorted(
            single + dist + ["serve/qps", "serve/p99"]
        )

    def test_workloads_are_full_metrics_dumps(self, workloads):
        for name, metrics in workloads.items():
            assert metrics["schema"] == "repro.metrics/2"
            assert metrics["meta"]["bench_workload"] == name
            assert metrics["totals"]["elapsed_seconds"] > 0
            if name.startswith("dist_"):
                assert metrics["tiers"]["inter"]["bytes"] > 0
            else:
                assert metrics["arrays"]
                assert metrics["hw_counters"]

    def test_suite_deterministic(self, workloads):
        again = run_bench_suite(SMALL)
        assert json.dumps(workloads, sort_keys=True) == json.dumps(
            again, sort_keys=True
        )


class TestPayload:
    def test_meta_block(self, payload):
        assert payload["schema"] == BENCH_SCHEMA
        meta = payload["meta"]
        assert meta["seq"] == 1
        assert meta["git_sha"]
        assert meta["schema_versions"] == {
            "bench": BENCH_SCHEMA,
            "metrics": "repro.metrics/2",
        }
        assert meta["suite"]["rmat_scale"] == SMALL.rmat_scale

    def test_write_load_roundtrip(self, payload, tmp_path):
        path = write_bench(payload, str(tmp_path))
        assert path.endswith("BENCH_1.json")
        assert load_bench(path) == payload
        # A directory resolves to its highest-sequence entry.
        write_bench(bench_payload({}, seq=3, config=SMALL), str(tmp_path))
        assert load_bench(str(tmp_path))["meta"]["seq"] == 3

    def test_write_is_byte_deterministic(self, payload, tmp_path):
        a = write_bench(payload, str(tmp_path / "a"))
        b = write_bench(payload, str(tmp_path / "b"))
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_load_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "BENCH_9.json"
        bad.write_text(json.dumps({"schema": "other/9"}))
        with pytest.raises(ValueError, match="other/9"):
            load_bench(str(bad))

    def test_load_rejects_empty_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_bench(str(tmp_path))


class TestNextSeq:
    def test_continues_highest(self, payload, tmp_path):
        write_bench(bench_payload({}, seq=4, config=SMALL), str(tmp_path))
        write_bench(bench_payload({}, seq=11, config=SMALL), str(tmp_path))
        assert next_seq(str(tmp_path)) == 12

    def test_empty_dir_starts_at_one(self, tmp_path, monkeypatch):
        # Unrelated files (a changelog, say) never number the trajectory.
        (tmp_path / "CHANGES.md").write_text("PR 1: a\nPR 2: b\n\n")
        monkeypatch.chdir(tmp_path)
        assert next_seq(str(tmp_path)) == 1
        assert next_seq(".") == 1

    def test_last_resort_is_one(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert next_seq(str(tmp_path / "missing")) == 1


class TestSourceSeed:
    def test_seed_stamped_into_suite_meta(self, payload):
        # Threaded, never hardcoded: two trajectories built with
        # different source draws must be visibly different suites.
        assert payload["meta"]["suite"]["source_seed"] == SMALL.source_seed

    def test_different_seed_changes_the_draw(self):
        from repro.bench.harness import pick_sources
        from repro.datasets.rmat import rmat_graph

        g = rmat_graph(
            scale=SMALL.rmat_scale,
            edge_factor=SMALL.edge_factor,
            seed=SMALL.seed,
        )
        a = pick_sources(g, 1, seed=SMALL.source_seed)
        b = pick_sources(g, 1, seed=7)
        assert int(a[0]) != int(b[0])

    def test_seed_mismatch_blocks_the_gate(self, payload):
        reseeded = json.loads(json.dumps(payload))
        reseeded["meta"]["suite"]["source_seed"] = 7
        with pytest.raises(ValueError, match="source_seed"):
            compare_bench(payload, reseeded)


class TestLoadFallback:
    def test_stale_index_falls_back_to_scan(self, payload, tmp_path):
        # A leftover TRAJECTORY.json index (older trajectories wrote
        # one) is ignored: the directory scan alone resolves the entry.
        write_bench(payload, str(tmp_path))
        (tmp_path / "TRAJECTORY.json").write_text(
            json.dumps(
                {
                    "schema": "repro.bench.trajectory/1",
                    "entries": [{"seq": 99, "file": "BENCH_99.json"}],
                }
            )
        )
        assert load_bench(str(tmp_path))["meta"]["seq"] == 1

    def test_corrupt_index_falls_back_to_scan(self, payload, tmp_path):
        write_bench(payload, str(tmp_path))
        (tmp_path / "TRAJECTORY.json").write_text("{broken")
        assert load_bench(str(tmp_path))["meta"]["seq"] == 1

    def test_unreadable_latest_falls_back_to_previous(self, payload, tmp_path):
        write_bench(payload, str(tmp_path))
        (tmp_path / "BENCH_2.json").write_text("{half-written")
        assert load_bench(str(tmp_path))["meta"]["seq"] == 1

    def test_no_readable_entry_is_one_clear_error(self, tmp_path):
        (tmp_path / "BENCH_1.json").write_text("{broken")
        with pytest.raises(ValueError, match="no readable BENCH"):
            load_bench(str(tmp_path))


class TestCompare:
    def test_self_compare_zero_deltas(self, payload):
        cmp = compare_bench(payload, payload)
        assert cmp.ok
        assert not cmp.changed
        assert cmp.rows  # nine workloads' worth of keys

    def test_keys_carry_workload_prefix(self, payload):
        cmp = compare_bench(payload, payload)
        assert all(r.key.startswith("workloads.") for r in cmp.rows)
        assert any("bfs/efg" in r.key for r in cmp.rows)

    def test_perturbed_cost_term_rejected(self, payload):
        tampered = json.loads(json.dumps(payload))
        row = tampered["workloads"]["bfs/efg"]["totals"]
        row["device_bytes"] += 64.0
        cmp = compare_bench(payload, tampered)
        assert not cmp.ok
        keys = [r.key for r in cmp.regressions]
        assert "workloads.bfs/efg.totals.device_bytes" in keys

    def test_meta_differences_ignored(self, payload):
        other = json.loads(json.dumps(payload))
        other["meta"]["git_sha"] = "different"
        for metrics in other["workloads"].values():
            metrics["meta"]["git_sha"] = "different"
        assert compare_bench(payload, other).ok

    def test_missing_workload_compares_against_zero(self, payload):
        partial = json.loads(json.dumps(payload))
        del partial["workloads"]["pagerank/cgr"]
        cmp = compare_bench(payload, partial)
        assert not cmp.ok
        assert any("pagerank/cgr" in r.key for r in cmp.regressions)

    def test_added_workload_is_not_a_regression(self, payload):
        # The suite grows over time: a workload with no baseline history
        # must not trip the gate (it has nothing to regress against).
        shrunk = json.loads(json.dumps(payload))
        del shrunk["workloads"]["dist_bfs/ef"]
        cmp = compare_bench(shrunk, payload)
        assert cmp.ok
        assert not any("dist_bfs/ef" in r.key for r in cmp.rows)

    def test_threshold_tolerates_small_drift(self, payload):
        drifted = json.loads(json.dumps(payload))
        row = drifted["workloads"]["bfs/csr"]["totals"]
        row["elapsed_seconds"] *= 1.005
        assert not compare_bench(payload, drifted, threshold=0.0).ok
        assert compare_bench(payload, drifted, threshold=0.01).ok


class TestCrossover:
    def test_payload_carries_crossover_section(self, payload):
        crossover = payload["crossover"]
        for tier in ("intra", "inter"):
            row = crossover[tier]
            assert row["raw_bytes"] > 0 and row["ef_bytes"] > 0
            assert row["raw_over_ef"] > 0

    def test_ef_wins_the_slow_tier(self, payload):
        # Frontier compression pays on the inter-node fabric: fewer
        # bytes through the narrow pipe means proportionally less time.
        inter = payload["crossover"]["inter"]
        assert inter["ef_bytes"] < inter["raw_bytes"]
        assert inter["raw_over_ef"] > 1.0

    def test_empty_without_dist_workloads(self):
        from repro.bench.trajectory import crossover_summary

        assert crossover_summary({}) == {}


class TestCommittedBaseline:
    """The crossover claim must hold in the committed trajectory entry."""

    @pytest.fixture(scope="class")
    def committed(self):
        import os

        path = os.path.join(
            os.path.dirname(__file__), "..", "..",
            "benchmarks", "baselines", "BENCH_6.json",
        )
        if not os.path.exists(path):
            pytest.skip("BENCH_6.json not committed yet")
        return load_bench(path)

    def test_inter_tier_crossover_at_least_1_3x(self, committed):
        inter = committed["crossover"]["inter"]
        assert inter["raw_over_ef"] >= 1.3

    def test_raw_competitive_intra(self, committed):
        # On the fast latency-dominated tier the codec choice barely
        # matters — raw stays within 1.3x of ef.
        intra = committed["crossover"]["intra"]
        assert intra["raw_over_ef"] <= 1.3


class TestWhatIfTargets:
    def test_every_workload_has_a_target(self, workloads, payload):
        from repro.bench.trajectory import whatif_targets

        targets = whatif_targets(workloads)
        # Every current-schema workload carries a whatif section.
        assert sorted(targets) == sorted(workloads)
        for row in targets.values():
            assert row["scenario"]
            assert row["speedup"] > 0.0
        assert payload["whatif_targets"] == targets

    def test_old_schema_workloads_skipped(self):
        from repro.bench.trajectory import whatif_targets

        workloads = {
            "old/one": {"totals": {"elapsed_seconds": 1.0}},
            "new/one": {
                "whatif": {
                    "b": {"speedup": 2.0},
                    "a": {"speedup": 2.0},
                }
            },
        }
        targets = whatif_targets(workloads)
        assert list(targets) == ["new/one"]
        # Equal speedups break alphabetically for a stable digest.
        assert targets["new/one"] == {"scenario": "a", "speedup": 2.0}
