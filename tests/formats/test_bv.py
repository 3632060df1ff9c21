"""Tests for the BV (WebGraph-style) comparator."""

import numpy as np
import pytest

from repro.datasets.web import web_graph
from repro.formats.bv import bv_encode
from repro.formats.csr import CSRGraph
from repro.formats.graph import Graph


class TestRoundtrip:
    def test_random_graphs(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 120))
            m = int(rng.integers(1, 900))
            g = Graph.from_edges(
                rng.integers(0, n, m), rng.integers(0, n, m), num_nodes=n
            )
            bv = bv_encode(g)
            for v in range(n):
                assert np.array_equal(bv.neighbours(v), g.neighbours(v))

    def test_similar_lists_share(self):
        # Consecutive vertices with nearly identical lists: references
        # must kick in and shrink the encoding.
        base = list(range(100, 160))
        adjacency = [base, base, base[:-1] + [500], base]
        g = Graph.from_adjacency(adjacency + [[] for _ in range(500)])
        bv = bv_encode(g)
        sizes = np.diff(bv.offsets[:5])
        # Later copies must be far smaller than the first full list.
        assert sizes[1] < sizes[0] / 3
        for v in range(4):
            assert np.array_equal(bv.neighbours(v), g.neighbours(v))

    def test_reference_chain_bounded(self):
        # With max_ref_chain=1 a list referencing a referencing list is
        # disallowed; decode still round-trips.
        base = list(range(50, 90))
        adjacency = [base] * 6
        g = Graph.from_adjacency(adjacency + [[] for _ in range(90)])
        bv = bv_encode(g, max_ref_chain=1)
        for v in range(6):
            assert np.array_equal(bv.neighbours(v), g.neighbours(v))

    def test_zero_window_disables_references(self, small_graph):
        bv = bv_encode(small_graph, window=0)
        for v in range(0, small_graph.num_nodes, 7):
            assert np.array_equal(bv.neighbours(v), small_graph.neighbours(v))

    def test_validation(self, small_graph):
        with pytest.raises(ValueError):
            bv_encode(small_graph, window=-1)
        with pytest.raises(ValueError):
            bv_encode(small_graph, max_ref_chain=0)


class TestCompression:
    def test_web_graph_beats_plain_efg(self):
        # BV's home turf: locality + similar lists.
        from repro.core.efg import efg_encode

        g = web_graph(6000, 25, seed=3)
        bv = bv_encode(g)
        csr = CSRGraph.from_graph(g).nbytes
        assert csr / bv.nbytes > csr / efg_encode(g).nbytes * 0.9

    def test_references_help_on_web(self):
        g = web_graph(6000, 25, seed=4)
        with_refs = bv_encode(g).nbytes
        without = bv_encode(g, window=0).nbytes
        assert with_refs < without
