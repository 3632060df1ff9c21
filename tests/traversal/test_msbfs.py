"""Tests for bit-parallel multi-source BFS."""

import numpy as np
import pytest

from repro.core.efg import efg_encode
from repro.core.listcache import DecodedListCache
from repro.datasets.rmat import rmat_graph
from repro.formats.csr import CSRGraph
from repro.primitives.bitops import POPCOUNT_TABLE
from repro.traversal.backends import CSRBackend, EFGBackend, build_backend
from repro.traversal.bfs import bfs
from repro.traversal.msbfs import MAX_SOURCES, msbfs
from tests.working_set import peak_bytes


def _efg_backend(graph, device, cache_bytes=0):
    backend = EFGBackend(efg_encode(graph), device)
    if cache_bytes:
        backend.attach_cache(DecodedListCache(budget_bytes=cache_bytes))
    return backend


def _assert_matches_sequential(graph, device, sources, cache_bytes=0):
    ms = msbfs(_efg_backend(graph, device, cache_bytes), sources)
    seq_backend = _efg_backend(graph, device)
    total_edges = 0
    for row, s in enumerate(sources):
        ref = bfs(seq_backend, int(s))
        assert np.array_equal(ms.levels[row], ref.levels), s
        total_edges += ref.edges_traversed
    assert ms.edges_traversed == total_edges
    assert ms.num_levels == int(np.max(ms.levels)) + 1
    return ms


class TestCorrectness:
    def test_chain_two_sources(self, chain_graph, scaled_device):
        ms = _assert_matches_sequential(
            chain_graph, scaled_device, np.array([0, 5])
        )
        assert ms.num_levels == 10  # source 0 reaches depth 9
        assert ms.levels[1][9] == 4  # row 1 is source 5

    def test_small_graph_all_lanes(self, small_graph, scaled_device):
        rng = np.random.default_rng(3)
        sources = rng.choice(small_graph.num_nodes, size=MAX_SOURCES,
                             replace=False)
        _assert_matches_sequential(small_graph, scaled_device, sources)

    def test_rmat_with_cache(self, scaled_device):
        graph = rmat_graph(scale=9, edge_factor=8, seed=5)
        sources = np.flatnonzero(graph.degrees > 0)[:32]
        ms = _assert_matches_sequential(
            graph, scaled_device, sources, cache_bytes=1 << 18
        )
        assert ms.cache_stats is not None
        assert ms.cache_stats.hits > 0

    def test_cache_does_not_change_levels(self, small_graph, scaled_device):
        sources = np.arange(16)
        plain = msbfs(_efg_backend(small_graph, scaled_device), sources)
        cached = msbfs(
            _efg_backend(small_graph, scaled_device, cache_bytes=1 << 16),
            sources,
        )
        assert np.array_equal(plain.levels, cached.levels)
        assert plain.edges_traversed == cached.edges_traversed
        assert cached.lists_decoded <= plain.lists_decoded

    def test_csr_backend(self, small_graph, scaled_device):
        sources = np.array([0, 1, 2, 3])
        backend = CSRBackend(CSRGraph.from_graph(small_graph), scaled_device)
        ms = msbfs(backend, sources)
        ref = EFGBackend(efg_encode(small_graph), scaled_device)
        for row, s in enumerate(sources):
            assert np.array_equal(ms.levels[row], bfs(ref, int(s)).levels)

    def test_single_source_matches_bfs(self, small_graph, scaled_device):
        ms = msbfs(_efg_backend(small_graph, scaled_device), np.array([7]))
        ref = bfs(_efg_backend(small_graph, scaled_device), 7)
        assert np.array_equal(ms.levels[0], ref.levels)
        assert ms.num_levels == ref.num_levels

    def test_max_levels_cap(self, chain_graph, scaled_device):
        ms = msbfs(_efg_backend(chain_graph, scaled_device),
                   np.array([0]), max_levels=3)
        assert ms.num_levels == 4
        assert ms.levels[0][4] == -1


class TestAmortization:
    def test_fewer_decodes_than_sequential(self, scaled_device):
        graph = rmat_graph(scale=9, edge_factor=8, seed=5)
        sources = np.flatnonzero(graph.degrees > 0)[:MAX_SOURCES]
        seq = _efg_backend(graph, scaled_device)
        seq_seconds = sum(bfs(seq, int(s)).sim_seconds for s in sources)
        ms_backend = _efg_backend(graph, scaled_device, cache_bytes=1 << 19)
        ms = msbfs(ms_backend, sources)
        assert ms.lists_decoded * 5 <= seq.lists_decoded
        assert ms.seconds_per_source < seq_seconds / len(sources)

    def test_gteps_counts_per_source_edges(self, chain_graph, scaled_device):
        ms = msbfs(_efg_backend(chain_graph, scaled_device),
                   np.array([0, 1]))
        # Source 0 traverses 9 edges, source 1 traverses 8.
        assert ms.edges_traversed == 17
        assert ms.gteps == pytest.approx(17 / ms.sim_seconds / 1e9)


class TestDuplicateSources:
    def test_duplicates_share_a_lane(self, small_graph, scaled_device):
        ms = msbfs(_efg_backend(small_graph, scaled_device),
                   np.array([3, 3, 7, 3]))
        assert ms.num_sources == 4
        assert ms.num_lanes == 2
        assert np.array_equal(ms.levels[0], ms.levels[1])
        assert np.array_equal(ms.levels[0], ms.levels[3])

    def test_aliased_rows_match_sequential(self, small_graph, scaled_device):
        sources = np.array([5, 2, 5, 9, 2, 5])
        ms = msbfs(_efg_backend(small_graph, scaled_device), sources)
        seq = _efg_backend(small_graph, scaled_device)
        for row, s in enumerate(sources):
            assert np.array_equal(ms.levels[row], bfs(seq, int(s)).levels), s

    def test_duplicate_edges_count_per_query(self, chain_graph, scaled_device):
        # Source 0 traverses 9 chain edges; three queries for it must
        # account for the work three sequential runs would have done.
        ms = msbfs(_efg_backend(chain_graph, scaled_device),
                   np.array([0, 0, 0]))
        assert ms.num_lanes == 1
        assert ms.edges_traversed == 27

    def test_64_distinct_plus_duplicates_allowed(
        self, small_graph, scaled_device
    ):
        distinct = np.arange(MAX_SOURCES)
        sources = np.concatenate([distinct, distinct[:8]])
        ms = msbfs(_efg_backend(small_graph, scaled_device), sources)
        assert ms.num_lanes == MAX_SOURCES
        assert ms.num_sources == MAX_SOURCES + 8
        for row in range(8):
            assert np.array_equal(
                ms.levels[MAX_SOURCES + row], ms.levels[row]
            )


class TestValidation:
    def test_rejects_empty(self, small_graph, scaled_device):
        with pytest.raises(ValueError):
            msbfs(_efg_backend(small_graph, scaled_device),
                  np.array([], dtype=np.int64))

    def test_rejects_too_many(self, small_graph, scaled_device):
        with pytest.raises(ValueError):
            msbfs(_efg_backend(small_graph, scaled_device),
                  np.arange(MAX_SOURCES + 1))

    def test_rejects_more_than_64_distinct(self, small_graph, scaled_device):
        # Duplicates don't count against the lane budget; 65 *distinct*
        # sources do, even when duplicated queries pad the batch.
        sources = np.concatenate([np.arange(MAX_SOURCES + 1)] * 2)
        with pytest.raises(ValueError, match="distinct"):
            msbfs(_efg_backend(small_graph, scaled_device), sources)

    def test_rejects_out_of_range(self, small_graph, scaled_device):
        backend = _efg_backend(small_graph, scaled_device)
        with pytest.raises(IndexError):
            msbfs(backend, np.array([small_graph.num_nodes]))
        with pytest.raises(IndexError):
            msbfs(backend, np.array([-1]))


def _per_edge_source_edges(graph, sources, device):
    """Each level's source-edge count, taken edge by edge.

    The reference msbfs's per-vertex count must equal: every edge out of
    the union frontier carries its origin's lane mask, the mask's
    popcount (eight byte-table probes per word) counts its (lane, edge)
    pairs, and a lane serving ``m`` queries adds ``m - 1`` more per edge.
    Frontiers come from sequential ``bfs`` levels, not from msbfs.
    """
    lanes, counts = np.unique(sources, return_counts=True)
    ref = build_backend("csr", graph, device)
    lane_levels = np.stack([bfs(ref, int(s)).levels for s in lanes])
    per_level = []
    for depth in range(int(lane_levels.max()) + 1):
        masks = np.zeros(graph.num_nodes, dtype=np.uint64)
        for lane in range(lanes.shape[0]):
            masks[lane_levels[lane] == depth] |= np.uint64(1 << lane)
        active = np.flatnonzero(masks)
        src_per_edge = np.repeat(masks[active], graph.degrees[active])
        level = int(POPCOUNT_TABLE[src_per_edge.view(np.uint8)].sum())
        for lane in np.flatnonzero(counts > 1).tolist():
            in_lane = (src_per_edge >> np.uint64(lane)) & np.uint64(1)
            level += (int(counts[lane]) - 1) * int(in_lane.sum())
        per_level.append(level)
    return per_level


class TestSourceEdgeCount:
    """Source-edges are counted per frontier vertex, exactly as per edge."""

    @pytest.fixture(scope="class")
    def graph(self):
        return rmat_graph(scale=9, edge_factor=8, seed=5)

    @pytest.fixture(scope="class")
    def sources(self, graph):
        # 40 distinct lanes: 24 serve one query, 10 serve two, 6 serve
        # three (72 queries in all).
        picked = np.flatnonzero(graph.degrees > 0)[:40]
        return np.concatenate([picked, picked[24:], picked[34:]])

    @pytest.mark.parametrize(
        "fmt,cache_kb",
        [("csr", 0), ("efg", 0), ("cgr", 0), ("efg", 64), ("csr", 64)],
    )
    def test_matches_per_edge_oracle(
        self, graph, sources, scaled_device, fmt, cache_kb
    ):
        backend = build_backend(fmt, graph, scaled_device, cache_kb=cache_kb)
        ms = msbfs(backend, sources)
        expected = _per_edge_source_edges(graph, sources, scaled_device)
        spans = backend.engine.tracer.root.find("level")
        assert [s.attrs["source_edges"] for s in spans] == expected
        assert ms.edges_traversed == sum(expected)
        ref = build_backend("csr", graph, scaled_device)
        assert ms.edges_traversed == sum(
            bfs(ref, int(s)).edges_traversed for s in sources
        )
        if cache_kb:
            assert ms.cache_stats.hits > 0


class TestLevelRows:
    def test_rows_are_shared_read_only_int32_views(
        self, small_graph, scaled_device
    ):
        ms = msbfs(_efg_backend(small_graph, scaled_device),
                   np.array([3, 7, 3]))
        assert isinstance(ms.levels, tuple) and len(ms.levels) == 3
        assert ms.levels[0] is ms.levels[2]
        assert ms.levels[0].base is ms.levels[1].base
        for row in ms.levels:
            assert row.dtype == np.int32
            with pytest.raises(ValueError):
                row[0] = 1

    def test_wave_peak_per_lane_vertex(self, scaled_device):
        # tracemalloc peak of one 64-lane efg wave with its result held,
        # per (lane x vertex).  The int32 lane matrix is 4 B of it and
        # the largest level's expansion scratch most of the rest; int64
        # levels, or a per-query copy of the matrix, do not fit.
        graph = rmat_graph(14, 16, seed=1)
        backend = build_backend("efg", graph, scaled_device)
        backend.degrees  # the cached degree array is not wave scratch
        sources = np.flatnonzero(graph.degrees > 0)[:MAX_SOURCES]
        peak = peak_bytes(msbfs, backend, sources)
        per_lane_vertex = peak / (MAX_SOURCES * graph.num_nodes)
        assert per_lane_vertex <= 20, per_lane_vertex
