"""Tests for edge weight generation."""

import numpy as np

from repro.formats.weights import generate_edge_weights


class TestWeights:
    def test_range(self, small_graph):
        w = generate_edge_weights(small_graph, seed=1)
        assert w.dtype == np.float32
        assert w.shape[0] == small_graph.num_edges
        assert w.min() >= 0.0
        assert w.max() < 1.0

    def test_deterministic(self, small_graph):
        a = generate_edge_weights(small_graph, seed=5)
        b = generate_edge_weights(small_graph, seed=5)
        assert np.array_equal(a, b)

    def test_seed_changes_values(self, small_graph):
        a = generate_edge_weights(small_graph, seed=1)
        b = generate_edge_weights(small_graph, seed=2)
        assert not np.array_equal(a, b)

    def test_undirected_weights_symmetric(self, small_graph):
        sym = small_graph.symmetrized()
        w = generate_edge_weights(sym, seed=3)
        # Weight of (u, v) equals weight of (v, u).
        src = np.repeat(np.arange(sym.num_nodes), sym.degrees)
        lookup = {}
        for s, d, wt in zip(src, sym.elist, w):
            lookup[(int(s), int(d))] = float(wt)
        for (s, d), wt in lookup.items():
            assert lookup[(d, s)] == wt

    def test_nbytes(self, small_graph):
        # float32: 4 B per arc.
        assert generate_edge_weights(small_graph).nbytes == 4 * small_graph.num_edges
