"""Autotuner tests: shortlist, confirmation contracts, persisted store.

The two ISSUE-pinned workloads — a single-GPU repeated-source BFS and
a 2-node x 4-GPU hierarchical BFS — must each tune to a config whose
confirmed simulated seconds beat the default, with every exact what-if
matching its confirming re-run bit-for-bit and every estimate inside
the documented bounds (the tuner itself raises otherwise, so these
tests double as the bound gate).
"""

import json

import pytest

from repro.datasets.rmat import rmat_graph
from repro.gpusim.device import TITAN_XP
from repro.tune import (
    CACHE_GROW_REL_BOUND,
    CACHE_SHRINK_REL_BOUND,
    WIRE_REL_BOUND,
    TuneBoundError,
    TuneTrial,
    graph_family,
    load_tuned,
    lookup_tuned,
    tune_cluster,
    tune_engine,
    workload_key,
    write_tuned,
)
from repro.tune.autotuner import _check_trial


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(scale=8, edge_factor=8, seed=3, name="tune")


@pytest.fixture(scope="module")
def device():
    return TITAN_XP.scaled(2048)


@pytest.fixture(scope="module")
def cluster_result(graph, device):
    return tune_cluster(graph, "bfs", device, gpus=8, nodes=2)


@pytest.fixture(scope="module")
def engine_result(graph, device):
    return tune_engine(graph, device)


class TestTuneCluster:
    def test_hierarchical_bfs_improves(self, cluster_result):
        # The ISSUE-pinned 2x4 workload: a confirmed config must beat
        # the raw-wire default.
        assert cluster_result.workload == "bfs/efg/2x4"
        assert cluster_result.improved
        assert cluster_result.speedup > 1.0
        assert cluster_result.best_seconds < cluster_result.baseline_seconds

    def test_exact_trials_match_bit_for_bit(self, cluster_result):
        exact = [t for t in cluster_result.trials if t.exact]
        assert exact  # the overlap toggle is always priced exactly
        for t in exact:
            assert t.predicted_seconds == t.confirmed_seconds

    def test_estimates_within_documented_bound(self, cluster_result):
        estimates = [t for t in cluster_result.trials if not t.exact]
        assert estimates  # codec swaps were shortlisted
        for t in estimates:
            assert t.rel_err <= WIRE_REL_BOUND

    def test_winner_is_best_confirmed_trial(self, cluster_result):
        best = min(t.confirmed_seconds for t in cluster_result.trials)
        assert cluster_result.best_seconds == best

    def test_baseline_codec_not_reconfirmed(self, cluster_result):
        assert {"wire": "raw"} not in [
            t.config for t in cluster_result.trials
        ]

    def test_deterministic(self, graph, device, cluster_result):
        again = tune_cluster(graph, "bfs", device, gpus=8, nodes=2)
        assert again.best_config == cluster_result.best_config
        assert again.best_seconds == cluster_result.best_seconds

    def test_max_confirm_caps_trials(self, graph, device):
        capped = tune_cluster(
            graph, "bfs", device, gpus=8, nodes=2, max_confirm=1
        )
        assert len(capped.trials) == 1

    def test_entry_merges_baseline_and_winner(self, cluster_result):
        entry = cluster_result.entry(source_seed=42)
        config = entry["config"]
        # Full effective config: every baseline knob present, winner
        # deltas applied on top.
        assert set(config) == {"wire", "schedule", "overlap"}
        for knob, value in cluster_result.best_config.items():
            assert config[knob] == value
        assert entry["speedup"] == cluster_result.speedup
        assert entry["source_seed"] == 42

    def test_report_tells_the_story(self, cluster_result):
        text = cluster_result.report()
        assert "baseline" in text
        assert "winner:" in text
        assert "predicted" in text and "confirmed" in text


class TestTuneEngine:
    def test_cache_budget_improves(self, engine_result):
        # The ISSUE-pinned single-GPU workload: growing the decode
        # cache beats the 4 KB default on the repeated-source loop.
        assert engine_result.workload == "bfs/efg/1x1"
        assert engine_result.improved
        assert engine_result.best_config["cache_kb"] > 4

    def test_estimates_within_pr7_bounds(self, engine_result):
        for t in engine_result.trials:
            assert not t.exact
            bound = (
                CACHE_GROW_REL_BOUND
                if t.config["cache_kb"] >= 4
                else CACHE_SHRINK_REL_BOUND
            )
            assert t.rel_err <= bound

    def test_deterministic(self, graph, device, engine_result):
        again = tune_engine(graph, device)
        assert again.best_config == engine_result.best_config
        assert again.best_seconds == engine_result.best_seconds

    def test_rejects_zero_cache(self, graph, device):
        with pytest.raises(ValueError, match="cache_kb"):
            tune_engine(graph, device, cache_kb=0)


class TestCheckTrial:
    def test_exact_mismatch_raises(self):
        trial = TuneTrial("overlap=True", {}, 1.0, 1.0 + 1e-12, exact=True)
        with pytest.raises(TuneBoundError, match="bit-for-bit"):
            _check_trial(trial, 0.5)

    def test_estimate_outside_bound_raises(self):
        trial = TuneTrial("wire=ef", {}, 1.2, 1.0, exact=False)
        with pytest.raises(TuneBoundError, match="bound 10%"):
            _check_trial(trial, 0.10)

    def test_estimate_inside_bound_passes(self):
        _check_trial(TuneTrial("wire=ef", {}, 1.05, 1.0, False), 0.10)


class TestStore:
    def test_family_is_seed_independent(self):
        a = graph_family({"kind": "rmat", "scale": 9, "edge_factor": 8, "seed": 3})
        b = graph_family({"kind": "rmat", "scale": 9, "edge_factor": 8, "seed": 7})
        assert a == b == "rmat-s9-e8"
        web = graph_family({"kind": "web", "num_nodes": 512, "edge_factor": 8})
        assert web == "web-n512-e8"

    def test_workload_key_layout(self):
        assert workload_key("bfs", "efg", 2, 8) == "bfs/efg/2x4"
        assert workload_key("bfs", "csr", 1, 1) == "bfs/csr/1x1"

    def test_write_lookup_roundtrip(self, tmp_path):
        entry = {"config": {"wire": "ef"}, "speedup": 2.0}
        path = write_tuned(str(tmp_path), "rmat-s8-e8", "bfs/efg/2x4", entry)
        assert path.endswith("rmat-s8-e8.json")
        got = lookup_tuned(str(tmp_path), "rmat-s8-e8", "bfs/efg/2x4")
        assert got["config"] == {"wire": "ef"}
        assert lookup_tuned(str(tmp_path), "rmat-s8-e8", "bfs/efg/1x1") is None
        assert lookup_tuned(str(tmp_path), "rmat-s9-e8", "bfs/efg/2x4") is None

    def test_merge_preserves_other_workloads(self, tmp_path):
        write_tuned(str(tmp_path), "f", "a/x/1x1", {"config": {}})
        write_tuned(str(tmp_path), "f", "b/y/2x4", {"config": {}})
        payload = load_tuned(str(tmp_path), "f")
        assert sorted(payload["workloads"]) == ["a/x/1x1", "b/y/2x4"]

    def test_index_tracks_directory(self, tmp_path):
        write_tuned(str(tmp_path), "fam1", "bfs/efg/1x1", {"config": {}})
        write_tuned(str(tmp_path), "fam2", "bfs/csr/2x4", {"config": {}})
        index = json.loads((tmp_path / "TUNED.json").read_text())
        assert index["schema"] == "repro.tuned.index/1"
        assert sorted(index["families"]) == ["fam1", "fam2"]
        assert index["families"]["fam2"]["workloads"] == ["bfs/csr/2x4"]

    def test_corrupt_family_file(self, tmp_path):
        (tmp_path / "bad.json").write_text("{broken")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_tuned(str(tmp_path), "bad")
        assert lookup_tuned(str(tmp_path), "bad", "bfs/efg/1x1") is None

    def test_writes_byte_deterministic(self, tmp_path):
        entry = {"config": {"wire": "ef"}, "speedup": 2.0}
        a = write_tuned(str(tmp_path / "a"), "f", "w", entry)
        b = write_tuned(str(tmp_path / "b"), "f", "w", entry)
        assert open(a, "rb").read() == open(b, "rb").read()


class TestCommittedTunedConfigs:
    """The committed benchmarks/tuned/ artifacts must stay loadable."""

    @pytest.fixture(scope="class")
    def tuned_dir(self):
        import os

        path = os.path.join(
            os.path.dirname(__file__), "..", "..", "benchmarks", "tuned"
        )
        if not os.path.isdir(path):
            pytest.skip("benchmarks/tuned not committed yet")
        return path

    def test_bench_dist_workload_present(self, tuned_dir):
        # CI's `repro dist bfs --rmat-scale 9 --gpus 8 --nodes 2
        # --tuned` reads this exact family/workload: bfs on csr shards
        # over 2 nodes x 4 GPUs of the scale-9 rmat graph.
        entry = lookup_tuned(tuned_dir, "rmat-s9-e8", "bfs/csr/2x4")
        assert entry is not None
        assert entry["speedup"] > 1.0
        assert set(entry["config"]) == {"wire", "schedule", "overlap"}

    def test_pinned_workloads_improved(self, tuned_dir):
        for workload in ("bfs/efg/1x1", "bfs/efg/2x4"):
            entry = lookup_tuned(tuned_dir, "rmat-s8-e8", workload)
            assert entry is not None, workload
            assert entry["speedup"] > 1.0
