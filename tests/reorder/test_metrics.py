"""Tests for ordering metrics."""

import numpy as np

from repro.formats.graph import Graph
from repro.reorder.metrics import gap_statistics
from tests.graph_oracles import locality_statistics


class TestGapStatistics:
    def test_unit_gaps(self):
        g = Graph.from_adjacency([np.arange(1, 50)] + [[]] * 49)
        s = gap_statistics(g)
        assert s["unit_gap_fraction"] == 1.0

    def test_large_gaps(self):
        g = Graph.from_adjacency([[1000, 2000, 4000]] + [[]] * 4000)
        s = gap_statistics(g)
        assert s["mean_log2_gap"] > 9
        assert s["unit_gap_fraction"] == 0.0

    def test_empty_graph(self):
        g = Graph(vlist=np.array([0]), elist=np.array([], dtype=np.int64))
        s = gap_statistics(g)
        assert s["mean_log2_gap"] == 0.0

    def test_gaps_do_not_cross_rows(self):
        # Last of row 0 is 100; first of row 1 is 1 — must not produce
        # a negative/giant bogus gap.
        g = Graph.from_adjacency([[50, 100], [1, 2]] + [[]] * 99)
        s = gap_statistics(g)
        assert np.isfinite(s["mean_log2_gap"])

    def test_single_edge_rows(self):
        g = Graph.from_adjacency([[5], [7], [9]] + [[]] * 7)
        s = gap_statistics(g)
        assert s["mean_log2_gap"] > 0


class TestLocalityStatistics:
    def test_self_adjacent(self):
        g = Graph.from_adjacency([[1], [0]])
        s = locality_statistics(g)
        assert s["mean_edge_span"] == 1.0

    def test_far_edges(self):
        g = Graph.from_adjacency([[999]] + [[] for _ in range(999)])
        assert locality_statistics(g)["mean_edge_span"] == 999.0

    def test_empty(self):
        g = Graph(vlist=np.array([0]), elist=np.array([], dtype=np.int64))
        assert locality_statistics(g)["mean_edge_span"] == 0.0
