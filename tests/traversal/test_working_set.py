"""Each run's memory plan holds the format's arrays, the backend's
persistent extras and that run's own working set — never what earlier
runs placed.

The devices here are sized to a fresh backend's plan exactly (BFS's
working set, the format's arrays and any weights or cache budget), so
one byte more of leftover working state pushes an array to the host
and changes the priced launches.
"""

import numpy as np
import pytest

from repro.datasets.rmat import rmat_graph
from repro.dist import (
    ShardedCluster,
    distributed_bfs,
    distributed_pagerank,
    distributed_sssp,
)
from repro.gpusim.device import TITAN_XP
from repro.traversal.backends import BFS_WORKING, build_backend
from repro.traversal.bfs import bfs
from repro.traversal.delta_stepping import delta_stepping_sssp
from repro.traversal.direction_optimizing import bfs_direction_optimizing
from repro.traversal.msbfs import msbfs
from repro.traversal.pagerank import pagerank
from repro.traversal.sssp import sssp

SOURCE = 3
SOURCES = np.arange(0, 64, 4)
NUM_GPUS = 4
BASE = TITAN_XP.scaled(2048)

BFS_SET = ["work:labels", "work:visited", "work:frontier"]
PAGERANK_SET = ["work:labels", "work:rank2"]
DIST_PAGERANK_SET = ["work:labels", "work:rank2", "work:frontier"]
MSBFS_SET = ["work:visited_mask", "work:frontier_mask", "work:mslevels"]


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(scale=9, edge_factor=8, seed=7, directed=False)


@pytest.fixture(scope="module")
def weights(graph):
    rng = np.random.default_rng(3)
    return rng.uniform(0.1, 1.0, size=graph.num_edges).astype(np.float32)


def _plan_bytes(backend) -> int:
    return sum(p.nbytes for p in backend.engine.memory.plan().values())


def _tight_device(graph, weight_bytes=0, cache_kb=0):
    """A device exactly as large as a fresh efg backend's plan."""
    probe = build_backend(
        "efg", graph, BASE, weight_bytes=weight_bytes, cache_kb=cache_kb
    )
    return BASE.scaled_capacity(_plan_bytes(probe))


def _backend(graph, device, weight_bytes=0, cache_kb=0):
    return build_backend(
        "efg", graph, device, weight_bytes=weight_bytes, cache_kb=cache_kb
    )


def _ledger(engine):
    return list(engine.records), engine.elapsed_seconds


def _work_names(backend) -> list[str]:
    plan = backend.engine.memory.plan()
    return [name for name in plan if name.startswith("work:")]


def _touched(backend) -> set[str]:
    return {
        array
        for rec in backend.engine.records
        for array in rec.cost.traffic
        if array.startswith("work:")
    }


class TestNoRunDependsOnEarlierRuns:
    """Each case: a run after another run equals the same run on a
    fresh backend, launch for launch."""

    def test_device_is_the_boundary(self, graph):
        device = _tight_device(graph)
        fresh = _backend(graph, device)
        assert fresh.graph_fits_in_memory()
        fresh.place_working({**BFS_WORKING, "work:extra": 1})
        assert not fresh.graph_fits_in_memory()

    def test_bfs_after_pagerank(self, graph):
        device = _tight_device(graph)
        fresh = _backend(graph, device)
        want = bfs(fresh, SOURCE)
        reused = _backend(graph, device)
        pagerank(reused, max_iterations=2)
        got = bfs(reused, SOURCE)
        assert got.sim_seconds == want.sim_seconds
        assert _ledger(reused.engine) == _ledger(fresh.engine)

    def test_bfs_after_msbfs_with_cache(self, graph):
        device = _tight_device(graph, cache_kb=4)
        fresh = _backend(graph, device, cache_kb=4)
        want = bfs(fresh, SOURCE)
        reused = _backend(graph, device, cache_kb=4)
        msbfs(reused, SOURCES)
        # Empty the cache so only the memory plan can differ.
        reused.cache.clear()
        got = bfs(reused, SOURCE)
        assert got.sim_seconds == want.sim_seconds
        assert _ledger(reused.engine) == _ledger(fresh.engine)

    def test_pagerank_after_bfs(self, graph):
        device = _tight_device(graph)
        fresh = _backend(graph, device)
        want = pagerank(fresh, max_iterations=2)
        reused = _backend(graph, device)
        bfs(reused, SOURCE)
        got = pagerank(reused, max_iterations=2)
        assert got.sim_seconds == want.sim_seconds
        assert _ledger(reused.engine) == _ledger(fresh.engine)

    def test_sssp_after_pagerank(self, graph, weights):
        wb = 4 * graph.num_edges
        device = _tight_device(graph, weight_bytes=wb)
        fresh = _backend(graph, device, weight_bytes=wb)
        want = sssp(fresh, SOURCE, weights)
        reused = _backend(graph, device, weight_bytes=wb)
        pagerank(reused, max_iterations=2)
        got = sssp(reused, SOURCE, weights)
        assert got.sim_seconds == want.sim_seconds
        assert _ledger(reused.engine) == _ledger(fresh.engine)

    def test_distributed_bfs_after_distributed_pagerank(self, graph):
        probe = ShardedCluster.build(graph, NUM_GPUS, BASE, fmt="efg")
        device = BASE.scaled_capacity(
            max(_plan_bytes(b) for b in probe.backends)
        )
        fresh = ShardedCluster.build(graph, NUM_GPUS, device, fmt="efg")
        want = distributed_bfs(fresh, SOURCE)
        reused = ShardedCluster.build(graph, NUM_GPUS, device, fmt="efg")
        distributed_pagerank(reused, max_iterations=2)
        got = distributed_bfs(reused, SOURCE)
        assert got.sim_seconds == want.sim_seconds
        for b_got, b_want in zip(reused.backends, fresh.backends):
            assert _ledger(b_got.engine) == _ledger(b_want.engine)


class TestEachDriverPlacesItsOwnSet:
    """After a run the plan's ``work:*`` arrays are exactly the driver's
    set, and every ``work:*`` array its launches touch is in it.  Each
    run follows a run with another set, so nothing is inherited."""

    @staticmethod
    def _after_msbfs(graph, weights=None):
        wb = 4 * graph.num_edges if weights is not None else 0
        backend = _backend(graph, BASE, weight_bytes=wb)
        msbfs(backend, SOURCES)
        return backend

    @pytest.mark.parametrize(
        "run",
        [
            lambda b, w: bfs(b, SOURCE),
            lambda b, w: bfs_direction_optimizing(b, source=SOURCE),
            lambda b, w: sssp(b, SOURCE, w),
            lambda b, w: delta_stepping_sssp(b, SOURCE, w),
        ],
        ids=["bfs", "dobfs", "sssp", "delta_stepping"],
    )
    def test_bfs_family(self, graph, weights, run):
        backend = self._after_msbfs(graph, weights)
        run(backend, weights)
        assert _work_names(backend) == BFS_SET
        assert _touched(backend) <= set(BFS_SET)

    def test_pagerank(self, graph):
        backend = self._after_msbfs(graph)
        pagerank(backend, max_iterations=2)
        assert _work_names(backend) == PAGERANK_SET
        assert _touched(backend) == set(PAGERANK_SET)
        plan = backend.engine.memory.plan()
        assert "work:visited" not in plan and "work:frontier" not in plan

    def test_msbfs(self, graph):
        backend = _backend(graph, BASE)
        pagerank(backend, max_iterations=2)
        result = msbfs(backend, SOURCES)
        assert _work_names(backend) == MSBFS_SET
        assert _touched(backend) == set(MSBFS_SET)
        plan = backend.engine.memory.plan()
        assert not set(BFS_SET) & set(plan)
        assert plan["work:mslevels"].nbytes == (
            4 * graph.num_nodes * result.num_lanes
        )

    def test_msbfs_set_precedes_the_cache_budget(self, graph):
        backend = _backend(graph, BASE, cache_kb=4)
        msbfs(backend, SOURCES)
        assert _work_names(backend) == [*MSBFS_SET, "work:listcache"]

    @pytest.mark.parametrize(
        "before, run, expected",
        [
            (
                lambda c, w: distributed_pagerank(c, max_iterations=2),
                lambda c, w: distributed_bfs(c, SOURCE),
                BFS_SET,
            ),
            (
                lambda c, w: distributed_pagerank(c, max_iterations=2),
                lambda c, w: distributed_sssp(c, SOURCE, w),
                BFS_SET,
            ),
            (
                lambda c, w: distributed_bfs(c, SOURCE),
                lambda c, w: distributed_pagerank(c, max_iterations=2),
                DIST_PAGERANK_SET,
            ),
        ],
        ids=["distributed_bfs", "distributed_sssp", "distributed_pagerank"],
    )
    def test_distributed(self, graph, weights, before, run, expected):
        cluster = ShardedCluster.build(
            graph, NUM_GPUS, BASE, fmt="efg", with_weights=True
        )
        before(cluster, weights)
        run(cluster, weights)
        touched = set()
        for b in cluster.backends:
            assert _work_names(b) == expected
            # A shard plans its working set at the global vertex count.
            assert b.engine.memory.plan()["work:labels"].nbytes == (
                4 * graph.num_nodes
            )
            touched |= _touched(b)
        assert touched <= set(expected)
        if expected is DIST_PAGERANK_SET:
            assert touched == set(expected)
