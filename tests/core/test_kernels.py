"""Tests for the literal thread-block kernels (Alg. 2, Figs. 5-7)."""

import numpy as np
import pytest

from repro.core.efg import decode_lists, efg_encode
from repro.core.kernels import (
    decompress_multiple_lists,
    decompress_partial_list,
    decompress_single_list,
    multi_list_block_table,
)
from repro.formats.graph import Graph


@pytest.fixture
def graph_and_efg(rng):
    n, m = 120, 2500
    g = Graph.from_edges(
        rng.integers(0, n, m), rng.integers(0, n, m), num_nodes=n
    )
    return g, efg_encode(g, quantum=8)


class TestSingleList:
    def test_matches_reference(self, graph_and_efg):
        g, efg = graph_and_efg
        for v in range(g.num_nodes):
            assert np.array_equal(
                decompress_single_list(efg, v), g.neighbours(v)
            )

    @pytest.mark.parametrize("dimx", [1, 2, 3, 4, 8, 32, 256])
    def test_dimx_invariance(self, graph_and_efg, dimx):
        # Alg. 2 must produce the same output for any block width —
        # the tiling is a performance detail, not a semantic one.
        g, efg = graph_and_efg
        for v in range(0, g.num_nodes, 11):
            assert np.array_equal(
                decompress_single_list(efg, v, dimx=dimx), g.neighbours(v)
            )

    def test_empty_list(self):
        g = Graph.from_adjacency([[], [0]])
        efg = efg_encode(g)
        assert decompress_single_list(efg, 0).shape == (0,)

    def test_rejects_bad_dimx(self, graph_and_efg):
        _, efg = graph_and_efg
        with pytest.raises(ValueError):
            decompress_single_list(efg, 0, dimx=0)


class TestPartialList:
    def test_all_ranges(self, graph_and_efg):
        g, efg = graph_and_efg
        for v in range(0, g.num_nodes, 9):
            nbrs = g.neighbours(v)
            deg = nbrs.shape[0]
            for a in range(deg + 1):
                for b in range(a, deg + 1):
                    got = decompress_partial_list(efg, v, a, b)
                    assert np.array_equal(got, nbrs[a:b]), (v, a, b)

    def test_quantum_anchored_ranges(self, rng):
        # Long list with several forward pointers; ranges crossing them.
        nbrs = np.unique(rng.integers(0, 10**6, size=100))
        g = Graph.from_adjacency([nbrs] + [[] for _ in range(10**6 - 1)])
        efg = efg_encode(g, quantum=8)
        deg = nbrs.shape[0]
        for a in (0, 7, 8, 9, 15, 16, 40):
            for b in (a, a + 1, 17, 24, deg):
                if b < a or b > deg:
                    continue
                got = decompress_partial_list(efg, 0, a, b)
                assert np.array_equal(got, nbrs[a:b]), (a, b)

    def test_invalid_range(self, graph_and_efg):
        _, efg = graph_and_efg
        with pytest.raises(IndexError):
            decompress_partial_list(efg, 0, 0, 10**6)


class TestMultipleLists:
    @pytest.mark.parametrize("edges_per_block", [1, 3, 16, 128, 10**6])
    def test_matches_fast_path(self, graph_and_efg, rng, edges_per_block):
        g, efg = graph_and_efg
        frontier = rng.integers(0, g.num_nodes, size=25)
        vals, seg, assignment = decompress_multiple_lists(
            efg, frontier, edges_per_block=edges_per_block
        )
        assert np.array_equal(vals, decode_lists(efg, frontier))
        assert np.array_equal(
            seg, np.repeat(np.arange(len(frontier)), efg.degrees[frontier])
        )
        assert assignment.total_edges == vals.shape[0]

    def test_empty_frontier(self, graph_and_efg):
        _, efg = graph_and_efg
        vals, seg, _ = decompress_multiple_lists(efg, np.array([], dtype=np.int64))
        assert vals.shape == (0,)

    def test_frontier_of_empty_lists(self):
        g = Graph.from_adjacency([[], [], [1]])
        efg = efg_encode(g)
        vals, seg, _ = decompress_multiple_lists(efg, np.array([0, 1]))
        assert vals.shape == (0,)


class TestBlockTable:
    def test_fig7_invariants(self, graph_and_efg, rng):
        g, efg = graph_and_efg
        frontier = rng.integers(0, g.num_nodes, size=6)
        table = multi_list_block_table(efg, frontier, np.arange(6))
        popc = table["popcounts"]
        flags = table["is_list_start"]
        # Total popcount equals total values the block will produce.
        assert popc.sum() == g.degrees[frontier].sum()
        # One list start per non-empty list.
        nonempty = (g.degrees[frontier] > 0).sum()
        assert flags.sum() == nonempty
        # Segmented sums restart at list boundaries.
        seg = table["seg_exsum"]
        assert np.all(seg[flags] == 0)
        # Block-wide exsum is non-decreasing.
        assert np.all(np.diff(table["exsum"]) >= 0)
        # seg_bytes_before_me counts bytes within the list.
        sb = table["seg_bytes_before_me"]
        assert np.all(sb[flags] == 0)
