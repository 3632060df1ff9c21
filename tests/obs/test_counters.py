"""Tests for emulated hardware counters and per-array attribution."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.efg import efg_encode
from repro.datasets.rmat import rmat_graph
from repro.dist import ShardedCluster, distributed_bfs
from repro.dist.report import dist_run_metrics
from repro.gpusim.device import TITAN_XP
from repro.gpusim.engine import SimEngine
from repro.obs.counters import (
    array_traffic,
    counters_report,
    emulated_counters,
    kernel_array_attribution,
    top_array,
    verify_attribution,
)
from repro.obs.metrics import run_metrics
from repro.obs.roofline import level_rooflines
from repro.traversal.backends import EFGBackend
from repro.traversal.bfs import bfs


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(scale=8, edge_factor=8, seed=11)


def run_efg_bfs(graph, device_scale=2048.0):
    backend = EFGBackend(efg_encode(graph), TITAN_XP.scaled(device_scale))
    source = int(np.flatnonzero(graph.degrees > 0)[0])
    bfs(backend, source)
    return backend.engine


class TestAttributionExactness:
    def test_seeded_efg_bfs_sums_exactly(self, graph):
        # The ISSUE acceptance criterion: for a seeded EFG BFS, the
        # per-array attributed bytes sum *exactly* (float equality, not
        # approx) to each launch's byte terms.
        engine = run_efg_bfs(graph)
        assert engine.num_launches > 0
        verify_attribution(engine)

    def test_out_of_core_run_sums_exactly(self, graph):
        # A tiny device forces host residency, so the invariant also
        # covers the pcie column.
        engine = run_efg_bfs(graph, device_scale=2048.0 * 4096)
        counters = emulated_counters(engine)
        assert any(row["pcie_bytes"] > 0 for row in counters.values())
        verify_attribution(engine)

    def test_verify_catches_a_lost_byte(self, graph):
        # Losing half a byte leaves a fractional entry; the derived
        # byte columns are only order-exact over integer ones, so the
        # check must name the launch.
        engine = run_efg_bfs(graph)
        index, record = next(
            (i, r) for i, r in enumerate(engine.records) if r.cost.traffic
        )
        traffic = next(iter(record.cost.traffic.values()))
        traffic.moved_bytes += 0.5
        with pytest.raises(
            AssertionError, match=rf"launch {index} \({record.name}\)"
        ):
            verify_attribution(engine)

    @pytest.mark.parametrize(
        "moved", [float("nan"), float("inf"), -32.0, 2.0**53]
    )
    def test_verify_rejects_inexact_bytes(self, graph, moved):
        engine = run_efg_bfs(graph)
        record = next(r for r in engine.records if r.cost.traffic)
        next(iter(record.cost.traffic.values())).moved_bytes = moved
        with pytest.raises(AssertionError, match="not an exact integer"):
            verify_attribution(engine)

    def test_verify_rejects_unknown_residency(self, graph):
        engine = run_efg_bfs(graph)
        record = next(r for r in engine.records if r.cost.traffic)
        next(iter(record.cost.traffic.values())).residency = "l2"
        with pytest.raises(AssertionError, match="unknown residency 'l2'"):
            verify_attribution(engine)

    def test_counters_match_kernel_summary_columns(self, graph):
        engine = run_efg_bfs(graph)
        counters = emulated_counters(engine)
        summary = engine.kernel_summary()
        assert set(counters) == set(summary)
        for name, row in counters.items():
            assert row["dram_bytes"] == summary[name]["device_bytes"]
            assert row["pcie_bytes"] == summary[name]["host_bytes"]
            assert row["cache_hit_bytes"] == summary[name]["cached_bytes"]


def lose_half_a_byte(engine):
    """Leave one launch with a fractional ``moved_bytes``."""
    record = next(r for r in engine.records if r.cost.traffic)
    next(iter(record.cost.traffic.values())).moved_bytes += 0.5


def run_dist_bfs(graph):
    cluster = ShardedCluster.build(graph, 2, TITAN_XP.scaled(2048.0))
    distributed_bfs(cluster, int(np.flatnonzero(graph.degrees > 0)[0]))
    return cluster


class TestCheckedDumps:
    """A metrics dump is only written for a run that passes its checks."""

    def test_engine_dump_rejects_inexact_bytes(self, graph):
        engine = run_efg_bfs(graph)
        lose_half_a_byte(engine)
        with pytest.raises(AssertionError, match="not an exact integer"):
            run_metrics(engine)

    def test_cluster_dump_rejects_inexact_bytes(self, graph):
        cluster = run_dist_bfs(graph)
        lose_half_a_byte(cluster.backends[1].engine)
        with pytest.raises(
            AssertionError, match="gpu 1: .*not an exact integer"
        ):
            dist_run_metrics(cluster)

    def test_checks_hold_under_python_O(self):
        # The checks raise explicitly, so ``-O`` cannot strip them.
        root = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
        script = (
            "import pytest\n"
            "from repro.datasets.rmat import rmat_graph\n"
            "from repro.dist.report import dist_run_metrics\n"
            "from repro.obs.metrics import run_metrics\n"
            "from tests.obs.test_counters import (\n"
            "    lose_half_a_byte, run_dist_bfs, run_efg_bfs)\n"
            "graph = rmat_graph(scale=8, edge_factor=8, seed=11)\n"
            "engine = run_efg_bfs(graph)\n"
            "lose_half_a_byte(engine)\n"
            "with pytest.raises(AssertionError):\n"
            "    run_metrics(engine)\n"
            "cluster = run_dist_bfs(graph)\n"
            "lose_half_a_byte(cluster.backends[0].engine)\n"
            "with pytest.raises(AssertionError):\n"
            "    dist_run_metrics(cluster)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath(os.path.join(root, "src")), os.path.abspath(root)]
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


class TestDeterminism:
    def test_counters_byte_identical_across_runs(self, graph):
        a = emulated_counters(run_efg_bfs(graph))
        b = emulated_counters(run_efg_bfs(graph))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_attribution_identical_across_runs(self, graph):
        def dump(engine):
            return {
                kernel: {a: t.to_dict() for a, t in table.items()}
                for kernel, table in kernel_array_attribution(engine).items()
            }

        a = dump(run_efg_bfs(graph))
        b = dump(run_efg_bfs(graph))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestDerivedCounters:
    def test_sector_granularity(self):
        # A contiguous read of 100 x 4 B moves ceil(400/32) sectors.
        engine = SimEngine.for_device(TITAN_XP)
        engine.memory.register("arr", 4000)
        with engine.launch("k") as k:
            k.read("arr", 100, 4)
        row = emulated_counters(engine)["k"]
        assert row["dram_sectors"] == 13.0
        assert row["dram_bytes"] == 400.0
        assert row["dram_requested_bytes"] == 400.0
        assert row["coalescing_efficiency"] == 1.0

    def test_scattered_stream_lowers_coalescing(self):
        # Stride-16 int4 gathers touch one sector per element: 4 B used
        # of every 32 B sector moved.
        engine = SimEngine.for_device(TITAN_XP)
        engine.memory.register("arr", 1 << 20)
        ids = np.arange(0, 4096, 16, dtype=np.int64)
        with engine.launch("k") as k:
            k.read_stream("arr", ids, 4)
        row = emulated_counters(engine)["k"]
        assert row["coalescing_efficiency"] == pytest.approx(4 / 32)

    def test_broadcast_raises_coalescing_above_one(self):
        # Every lane reading the same element is served by one sector.
        engine = SimEngine.for_device(TITAN_XP)
        engine.memory.register("arr", 4096)
        ids = np.zeros(64, dtype=np.int64)
        with engine.launch("k") as k:
            k.read_stream("arr", ids, 4)
        row = emulated_counters(engine)["k"]
        assert row["coalescing_efficiency"] > 1.0

    def test_cache_bytes_not_in_dram_column(self):
        engine = SimEngine.for_device(TITAN_XP)
        engine.memory.register("arr", 4096)
        with engine.launch("k") as k:
            k.read("arr", 100, 4)
            k.cached_read("lists", 50, 4)
        row = emulated_counters(engine)["k"]
        assert row["dram_bytes"] == 400.0
        assert row["cache_hit_bytes"] == 200.0
        verify_attribution(engine)

    def test_warp_efficiency_flows_from_occupancy(self):
        engine = SimEngine.for_device(TITAN_XP)
        engine.memory.register("arr", 4096)
        with engine.launch("k") as k:
            k.read("arr", 1, 4)
            k.warp_occupancy([10] * 31 + [320])
        row = emulated_counters(engine)["k"]
        assert row["warp_efficiency"] == pytest.approx(
            (31 * 10 + 320) / (32 * 320)
        )

    def test_warp_efficiency_defaults_to_one(self):
        engine = SimEngine.for_device(TITAN_XP)
        engine.memory.register("arr", 4096)
        with engine.launch("k") as k:
            k.read("arr", 1, 4)
        assert emulated_counters(engine)["k"]["warp_efficiency"] == 1.0


class TestHelpers:
    def test_top_array_filters_by_residency(self, graph):
        engine = run_efg_bfs(graph)
        merged = {}
        for table in kernel_array_attribution(engine).values():
            for array, traffic in table.items():
                if array in merged:
                    merged[array].merge(traffic)
                else:
                    merged[array] = traffic.copy()
        overall = top_array(merged)
        assert overall in merged
        assert top_array({}) == ""
        assert top_array(merged, residency="host") == ""  # resident run

    def test_array_traffic_merges_the_records(self, graph):
        engine = run_efg_bfs(graph)
        whole = array_traffic(engine.records)
        assert top_array(whole) in whole
        assert sum(t.moved_bytes for t in whole.values()) == sum(
            r.cost.device_bytes + r.cost.host_bytes + r.cost.cached_bytes
            for r in engine.records
        )
        assert array_traffic([]) == {}

    def test_level_rooflines_name_the_top_array(self, graph):
        engine = run_efg_bfs(graph)
        levels = level_rooflines(engine)
        assert levels
        for ordinal, row in enumerate(levels):
            assert "top_array" not in row.attrs
            assert "arrays" not in row.attrs
            records = [r for r in engine.records if r.level == ordinal]
            assert row.top_array == top_array(array_traffic(records))
            assert row.top_array

    def test_counters_report_renders(self, graph):
        engine = run_efg_bfs(graph)
        report = counters_report(engine)
        assert "coal" in report and "warp" in report
        assert "efg_data" in report


class TestMetricsV2Sections:
    def test_arrays_and_hw_counters_present(self, graph):
        engine = run_efg_bfs(graph)
        payload = run_metrics(engine)
        assert payload["schema"] == "repro.metrics/2"
        assert payload["arrays"]
        assert payload["hw_counters"]
        for key in payload["arrays"]:
            assert "/" in key  # kernel/array composite keys
        for row in payload["roofline"].values():
            assert "bound_array" in row
        assert "dram_sectors" in payload["totals"]
        assert "pcie_sectors" in payload["totals"]

    def test_bound_array_names_real_array(self, graph):
        engine = run_efg_bfs(graph)
        payload = run_metrics(engine)
        arrays = {key.split("/", 1)[1] for key in payload["arrays"]}
        for name, row in payload["roofline"].items():
            if row["bound"] in ("memory", "pcie", "cache"):
                assert row["bound_array"] in arrays
