"""A frontier expanded block by block equals one whole-frontier decode.

``GraphBackend.expand`` decodes its frontier in runs of consecutive
vertices whose lists sum to at most ``_EXPAND_BLOCK`` edges.  The
budget is shrunk here so small graphs cross many block edges, and
every expansion is held to the concatenated adjacency lists and to the
launches a never-split expansion records.
"""

import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from repro.core.errors import CorruptMetadataError, CorruptStreamError
from repro.datasets.rmat import rmat_graph
from repro.gpusim.device import TITAN_XP
from repro.traversal import backends
from repro.traversal.backends import GPU_FORMATS, EFGBackend, build_backend
from repro.traversal.direction_optimizing import bfs_direction_optimizing
from repro.traversal.sssp import sssp

#: A budget no frontier here reaches: one block, the one-shot decode.
WHOLE = 1 << 62


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(scale=9, edge_factor=8, seed=5, directed=False)


@pytest.fixture(scope="module")
def weights(graph):
    rng = np.random.default_rng(2)
    return rng.uniform(0.1, 1.0, size=graph.num_edges).astype(np.float32)


def _frontiers(graph):
    deg = graph.degrees
    hub = int(np.argmax(deg))
    isolated = int(np.flatnonzero(deg == 0)[0])
    some = int(np.flatnonzero(deg == 3)[0])
    rng = np.random.default_rng(4)
    return {
        "all": np.arange(graph.num_nodes, dtype=np.int64),
        "hub_and_repeats": np.array(
            [hub, isolated, hub, some, some, isolated], dtype=np.int64
        ),
        "random": rng.integers(0, graph.num_nodes, size=300),
        "empty": np.empty(0, dtype=np.int64),
    }


def _budgets(graph, frontier):
    """Budgets that straddle the frontier's edge total and its largest
    list, plus a few small ones."""
    deg = graph.degrees[frontier]
    total = int(deg.sum())
    top = int(deg.max()) if deg.size else 1
    return sorted(
        b for b in {1, 13, 64, top - 1, top, total - 1, total, total + 1}
        if b >= 1
    )


def _adjacency(graph, frontier):
    deg = graph.degrees[frontier]
    lo = graph.vlist[frontier]
    slots = [np.arange(s, s + d) for s, d in zip(lo, deg)]
    slots = np.concatenate(slots) if slots else np.empty(0, dtype=np.int64)
    seg = np.repeat(np.arange(frontier.shape[0]), deg)
    return graph.elist[slots], seg, slots


def _expand(backend, frontier, budget, weights=None):
    with mock.patch.object(backends, "_EXPAND_BLOCK", budget):
        with backend.engine.launch("t") as k:
            if weights is None:
                return backend.expand(frontier, k)
            return backend.expand_weighted(frontier, k, weights)


@pytest.mark.parametrize("fmt", GPU_FORMATS)
@pytest.mark.parametrize(
    "name", ["all", "hub_and_repeats", "random", "empty"]
)
def test_blocked_expand_is_the_whole_decode(graph, fmt, name):
    frontier = _frontiers(graph)[name]
    want_nbrs, want_seg, _ = _adjacency(graph, frontier)
    whole = build_backend(fmt, graph, TITAN_XP)
    _expand(whole, frontier, WHOLE)
    for budget in _budgets(graph, frontier):
        backend = build_backend(fmt, graph, TITAN_XP)
        nbrs, seg = _expand(backend, frontier, budget)
        assert nbrs.dtype == np.int64 and seg.dtype == np.int64
        assert np.array_equal(nbrs, want_nbrs), budget
        assert np.array_equal(seg, want_seg), budget
        assert list(backend.engine.records) == list(whole.engine.records)


@pytest.mark.parametrize("fmt", GPU_FORMATS)
def test_blocked_expand_with_a_cache(graph, fmt):
    """Misses decode in blocks and hits merge in blocks; the second pass
    over an overlapping frontier has both, under a budget that evicts."""
    frontiers = _frontiers(graph)
    first = frontiers["random"]
    second = np.concatenate([frontiers["hub_and_repeats"], first[::-2]])

    def run(budget):
        backend = build_backend(fmt, graph, TITAN_XP, cache_kb=2)
        out = [_expand(backend, f, budget) for f in (first, second)]
        return backend, out

    whole, _ = run(WHOLE)
    assert whole.cache.stats.hits and whole.cache.stats.evictions
    for budget in (1, 13, 200):
        backend, out = run(budget)
        for frontier, (nbrs, seg) in zip((first, second), out):
            want_nbrs, want_seg, _ = _adjacency(graph, frontier)
            assert np.array_equal(nbrs, want_nbrs), budget
            assert np.array_equal(seg, want_seg), budget
        assert backend.cache.stats == whole.cache.stats
        assert list(backend.engine.records) == list(whole.engine.records)


@pytest.mark.parametrize("fmt", GPU_FORMATS)
def test_blocked_weight_gather(graph, weights, fmt):
    frontier = _frontiers(graph)["all"]
    _, _, slots = _adjacency(graph, frontier)
    wb = 4 * graph.num_edges
    for budget in (1, 13, WHOLE):
        backend = build_backend(fmt, graph, TITAN_XP, weight_bytes=wb)
        nbrs, seg, w = _expand(backend, frontier, budget, weights)
        assert w.dtype == np.float32
        assert np.array_equal(w, weights[slots])


@pytest.mark.parametrize("fmt", GPU_FORMATS)
def test_drivers_are_unchanged_by_the_budget(graph, weights, fmt):
    """SSSP relaxes through the weight gather and direction-optimizing
    BFS scans through the bottom-up decode; both give the same result
    and the same launches at any budget."""
    wb = 4 * graph.num_edges

    def run(budget):
        with mock.patch.object(backends, "_EXPAND_BLOCK", budget):
            relax = build_backend(fmt, graph, TITAN_XP, weight_bytes=wb)
            dist = sssp(relax, 0, weights).distances
            scan = build_backend(fmt, graph, TITAN_XP)
            result = bfs_direction_optimizing(scan, source=0, alpha=2.0)
        return dist, result, relax.engine.records, scan.engine.records

    want = run(WHOLE)
    assert want[1].bottom_up_levels
    got = run(7)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1].levels, want[1].levels)
    assert got[1].edges_examined == want[1].edges_examined
    assert list(got[2]) == list(want[2])
    assert list(got[3]) == list(want[3])


def test_efg_decodes_one_batch_per_block(graph):
    backend = build_backend("efg", graph, TITAN_XP)
    frontier = _frontiers(graph)["all"]
    with mock.patch.object(
        backends, "decode_lists", wraps=backends.decode_lists
    ) as spy:
        _expand(backend, frontier, 64)
    sizes = [int(graph.degrees[c.args[1]].sum()) for c in spy.call_args_list]
    assert len(sizes) > 1
    assert sum(sizes) == graph.num_edges
    # Only a list longer than the budget makes a block over it.
    assert all(
        s <= 64 or c.args[1].shape[0] == 1
        for s, c in zip(sizes, spy.call_args_list)
    )


class TestCorruptStreams:
    """A corrupt EFG container raises the same typed error through a
    blocked expansion as through one whole-frontier decode."""

    @staticmethod
    def _raised(efg, budget):
        backend = EFGBackend(efg, TITAN_XP)
        frontier = np.arange(efg.num_nodes, dtype=np.int64)
        with pytest.raises((CorruptStreamError, CorruptMetadataError)) as info:
            _expand(backend, frontier, budget)
        return info.value

    def _both(self, efg):
        whole, blocked = self._raised(efg, WHOLE), self._raised(efg, 13)
        assert type(blocked) is type(whole)
        return whole, blocked

    def test_stop_bits_cleared_in_a_late_block(self, graph):
        efg = backends.encode("efg", graph)
        victim = int(np.flatnonzero(graph.degrees >= 4)[-1])
        data = efg.data.copy()
        start = int(efg.upper_start_byte(np.array([victim]))[0])
        data[start : start + int(efg.upper_nbytes(np.array([victim]))[0])] = 0
        _, blocked = self._both(replace(efg, data=data))
        assert isinstance(blocked, CorruptStreamError)

    def test_bad_lower_width(self, graph):
        efg = backends.encode("efg", graph)
        victim = int(np.argmax(graph.degrees))
        nlb = efg.num_lower_bits.copy()
        nlb[victim] = 60
        whole, blocked = self._both(replace(efg, num_lower_bits=nlb))
        assert isinstance(blocked, CorruptMetadataError)
        assert blocked.vertex == whole.vertex == victim

    def test_non_monotone_vlist(self, graph):
        efg = backends.encode("efg", graph)
        vlist = efg.vlist.copy()
        v = graph.num_nodes // 2
        vlist[v], vlist[v + 1] = vlist[v + 1] + 5, vlist[v]
        whole, blocked = self._both(replace(efg, vlist=vlist))
        assert isinstance(blocked, CorruptMetadataError)
        assert blocked.vertex == whole.vertex

    def test_the_whole_batch_decides_which_error(self, graph):
        """A bad lower width in an early block and a negative degree in a
        late one: the whole batch reports the negative degree (that check
        runs first over every list), and so does the blocked expansion."""
        efg = backends.encode("efg", graph)
        early = int(np.flatnonzero(graph.degrees >= 4)[0])
        nlb = efg.num_lower_bits.copy()
        nlb[early] = 60
        vlist = efg.vlist.copy()
        v = graph.num_nodes - 10
        vlist[v], vlist[v + 1] = vlist[v + 1] + 5, vlist[v]
        whole, blocked = self._both(
            replace(efg, num_lower_bits=nlb, vlist=vlist)
        )
        assert whole.vertex == v
        assert blocked.vertex == v


class TestExpandWorkingSet:
    """A whole-frontier expansion on RMAT s14 needs its 16 B/edge
    outputs (neighbours and segment ids), the pricing's per-vertex
    scratch (``TestChargeWorkingSet``'s 256 B/vertex) and one block's
    decode scratch — not a per-edge multiple of the frontier."""

    PRICING_BYTES_PER_VERTEX = 256
    BLOCK_BYTES = 1 << 20

    @pytest.fixture(scope="class")
    def big(self):
        return rmat_graph(14, 16, seed=1)

    @pytest.mark.parametrize("fmt", GPU_FORMATS)
    def test_peak(self, big, fmt):
        backend = build_backend(fmt, big, TITAN_XP)
        frontier = np.arange(big.num_nodes, dtype=np.int64)
        backend.degrees  # a cached per-vertex array is not scratch
        with backend.engine.launch("t") as k:
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                out = backend.expand(frontier, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert out[0].shape[0] == big.num_edges
        bound = (
            16 * big.num_edges
            + self.PRICING_BYTES_PER_VERTEX * big.num_nodes
            + self.BLOCK_BYTES
        )
        assert peak - before <= bound, (peak - before, bound)
