"""Tests for bit-parallel multi-source BFS."""

import numpy as np
import pytest

from repro.core.efg import efg_encode
from repro.core.listcache import DecodedListCache
from repro.datasets.rmat import rmat_graph
from repro.formats.csr import CSRGraph
from repro.traversal.backends import CSRBackend, EFGBackend
from repro.traversal.bfs import bfs
from repro.traversal.msbfs import MAX_SOURCES, msbfs


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
    assert ms.num_levels == int(ms.levels.max()) + 1
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
        assert ms.levels[0, 4] == -1


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
