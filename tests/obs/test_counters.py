"""Tests for emulated hardware counters and per-array attribution."""

import json
import os
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.efg import efg_encode
from repro.datasets.rmat import rmat_graph
from repro.dist import (
    ShardedCluster,
    distributed_bfs,
    distributed_pagerank,
    distributed_sssp,
)
from repro.gpusim.cost import KernelCost
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
from repro.serve.service import GraphService
from repro.traversal.backends import EFGBackend, build_backend
from repro.traversal.bfs import bfs
from repro.traversal.delta_stepping import delta_stepping_sssp
from repro.traversal.direction_optimizing import bfs_direction_optimizing
from repro.traversal.msbfs import msbfs
from repro.traversal.pagerank import pagerank
from repro.traversal.sssp import sssp


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


SOURCES = np.arange(0, 64, 4)

SINGLE_GPU_RUNS = {
    "bfs": lambda b, s, w: bfs(b, s),
    "dobfs": lambda b, s, w: bfs_direction_optimizing(b, source=s),
    "msbfs": lambda b, s, w: msbfs(b, SOURCES),
    "sssp": lambda b, s, w: sssp(b, s, w),
    "delta_stepping": lambda b, s, w: delta_stepping_sssp(b, s, w),
    "pagerank": lambda b, s, w: pagerank(b, max_iterations=2),
}

CLUSTER_RUNS = {
    "dist_bfs": lambda c, s, w: distributed_bfs(c, s),
    "dist_sssp": lambda c, s, w: distributed_sssp(c, s, w),
    "dist_pagerank": lambda c, s, w: distributed_pagerank(
        c, max_iterations=2
    ),
}


@pytest.fixture(scope="module")
def weights(graph):
    rng = np.random.default_rng(3)
    return rng.uniform(0.1, 1.0, size=graph.num_edges).astype(np.float32)


def first_source(graph):
    return int(np.flatnonzero(graph.degrees > 0)[0])


def weighted_backend(graph):
    return build_backend(
        "efg", graph, TITAN_XP.scaled(2048.0),
        weight_bytes=4 * graph.num_edges,
    )


def weighted_cluster(graph):
    return ShardedCluster.build(
        graph, 2, TITAN_XP.scaled(2048.0), with_weights=True
    )


class Boom(Exception):
    """Raised inside a run; must reach the caller as it is."""


def charge_half_a_byte_more(monkeypatch, fail_at=None):
    """Every charge records half a byte more than it moved; with
    ``fail_at``, the ``fail_at``-th charge raises :class:`Boom`."""
    add = KernelCost.add_traffic
    calls = [0]

    def inexact(self, array, residency, moved, **rest):
        calls[0] += 1
        if calls[0] == fail_at:
            raise Boom("mid-run failure")
        add(self, array, residency, moved + 0.5, **rest)

    monkeypatch.setattr(KernelCost, "add_traffic", inexact)


def drift_the_clock(monkeypatch):
    """Every launch advances the clock a nanosecond past its record."""
    launch = SimEngine.launch

    @contextmanager
    def drifting(self, name):
        with launch(self, name) as kernel:
            yield kernel
        self._elapsed += 1e-9

    monkeypatch.setattr(SimEngine, "launch", drifting)


def tamper_before_finish(monkeypatch, tamper):
    """Apply ``tamper`` to the last level charge just before the run's
    metrics are built."""
    finish = ShardedCluster._finish_run

    def tampered(self, algorithm):
        tamper(self.charges[-1])
        finish(self, algorithm)

    monkeypatch.setattr(ShardedCluster, "_finish_run", tampered)


class TestCheckedRuns:
    """Every run checks its attribution and critical path when it ends,
    whether or not anything dumps it; the driver call itself raises."""

    @pytest.mark.parametrize("run", SINGLE_GPU_RUNS.values(),
                             ids=SINGLE_GPU_RUNS.keys())
    def test_single_gpu_run_rejects_half_a_byte(
        self, graph, weights, run, monkeypatch
    ):
        backend = weighted_backend(graph)
        charge_half_a_byte_more(monkeypatch)
        with pytest.raises(AssertionError, match="not an exact integer"):
            run(backend, first_source(graph), weights)

    @pytest.mark.parametrize("run", SINGLE_GPU_RUNS.values(),
                             ids=SINGLE_GPU_RUNS.keys())
    def test_single_gpu_run_rejects_a_drifting_clock(
        self, graph, weights, run, monkeypatch
    ):
        backend = weighted_backend(graph)
        drift_the_clock(monkeypatch)
        with pytest.raises(AssertionError, match="on-path replay"):
            run(backend, first_source(graph), weights)

    def test_every_service_wave_is_checked(self, graph, monkeypatch):
        service = GraphService.from_graph(graph, fmt="efg")
        sources = np.flatnonzero(graph.degrees > 0)
        service.submit(int(sources[0]))
        assert len(service.step_wave()) == 1
        charge_half_a_byte_more(monkeypatch)
        service.submit(int(sources[1]))
        with pytest.raises(AssertionError, match="not an exact integer"):
            service.step_wave()

    @pytest.mark.parametrize("run", CLUSTER_RUNS.values(),
                             ids=CLUSTER_RUNS.keys())
    def test_cluster_run_rejects_a_tampered_charge(
        self, graph, weights, run, monkeypatch
    ):
        cluster = weighted_cluster(graph)

        def pack_one_more(charge):
            charge.packed += 1

        tamper_before_finish(monkeypatch, pack_one_more)
        with pytest.raises(AssertionError, match="expanded ids .* != filtered"):
            run(cluster, first_source(graph), weights)

    @pytest.mark.parametrize("run", CLUSTER_RUNS.values(),
                             ids=CLUSTER_RUNS.keys())
    def test_cluster_run_rejects_a_drifting_clock(
        self, graph, weights, run, monkeypatch
    ):
        cluster = weighted_cluster(graph)

        def claim_longer(charge):
            charge.claim_seconds += 1e-9

        tamper_before_finish(monkeypatch, claim_longer)
        with pytest.raises(AssertionError, match="on-path replay"):
            run(cluster, first_source(graph), weights)

    def test_cluster_run_rejects_half_a_byte_on_a_shard(
        self, graph, monkeypatch
    ):
        cluster = weighted_cluster(graph)
        charge_half_a_byte_more(monkeypatch)
        with pytest.raises(
            AssertionError, match=r"gpu \d+: .*not an exact integer"
        ):
            distributed_bfs(cluster, first_source(graph))

    @pytest.mark.parametrize("scope", ["engine", "cluster"])
    def test_a_failing_run_raises_its_own_exception(
        self, graph, scope, monkeypatch
    ):
        # The charges before the failure are inexact, so a check run on
        # the way out would raise AssertionError instead.
        if scope == "engine":
            backend = weighted_backend(graph)
            run = lambda: bfs(backend, first_source(graph))  # noqa: E731
        else:
            cluster = weighted_cluster(graph)
            run = lambda: distributed_bfs(  # noqa: E731
                cluster, first_source(graph)
            )
        charge_half_a_byte_more(monkeypatch, fail_at=5)
        with pytest.raises(Boom, match="mid-run failure") as info:
            run()
        assert info.value.__context__ is None

    def test_checks_hold_under_python_O(self):
        # The checks raise explicitly, so ``-O`` cannot strip them.
        root = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
        script = (
            "import pytest\n"
            "from repro.datasets.rmat import rmat_graph\n"
            "from repro.dist import distributed_bfs\n"
            "from repro.traversal.bfs import bfs\n"
            "from tests.obs.test_counters import (\n"
            "    first_source, weighted_backend, weighted_cluster)\n"
            "from repro.gpusim.cost import KernelCost\n"
            "add = KernelCost.add_traffic\n"
            "KernelCost.add_traffic = (\n"
            "    lambda self, a, r, moved, **rest:"
            " add(self, a, r, moved + 0.5, **rest))\n"
            "graph = rmat_graph(scale=8, edge_factor=8, seed=11)\n"
            "source = first_source(graph)\n"
            "with pytest.raises(AssertionError):\n"
            "    bfs(weighted_backend(graph), source)\n"
            "with pytest.raises(AssertionError):\n"
            "    distributed_bfs(weighted_cluster(graph), source)\n"
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
