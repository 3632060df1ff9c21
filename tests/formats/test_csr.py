"""Tests for the 32-bit CSR baseline."""

import numpy as np
import pytest

from repro.formats.csr import CSRGraph
from repro.formats.graph import Graph


class TestCSRGraph:
    def test_nbytes_accounting(self, small_graph):
        csr = CSRGraph.from_graph(small_graph)
        # Paper accounting: 4 B per offset entry + 4 B per edge.
        assert csr.nbytes == 4 * (small_graph.num_nodes + 1) + 4 * small_graph.num_edges

    def test_constant_time_edge_access(self, tiny_graph):
        csr = CSRGraph.from_graph(tiny_graph)
        # Destination of the n-th edge of vertex i is elist[vlist[i]+n].
        assert csr.elist32[csr.vlist32[4] + 0] == 2
        assert csr.elist32[csr.vlist32[4] + 2] == 7

    def test_edge_access_bounds(self, tiny_graph):
        csr = CSRGraph.from_graph(tiny_graph)
        assert csr.neighbours(5).shape == (1,)
        with pytest.raises(IndexError):
            csr.neighbours(5)[1]  # degree(5) == 1

    def test_neighbours_match_graph(self, small_graph):
        csr = CSRGraph.from_graph(small_graph)
        for v in range(small_graph.num_nodes):
            assert np.array_equal(csr.neighbours(v), small_graph.neighbours(v))

    def test_dtypes_are_32bit(self, small_graph):
        csr = CSRGraph.from_graph(small_graph)
        assert csr.vlist32.dtype == np.uint32
        assert csr.elist32.dtype == np.uint32

    def test_counts(self, small_graph):
        csr = CSRGraph.from_graph(small_graph)
        assert csr.num_nodes == small_graph.num_nodes
        assert csr.num_edges == small_graph.num_edges
