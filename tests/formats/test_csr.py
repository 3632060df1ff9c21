"""Tests for the 32-bit CSR baseline."""

from types import SimpleNamespace

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
        assert csr.neighbours(4)[0] == 2
        assert csr.neighbours(4)[2] == 7

    def test_edge_access_bounds(self, tiny_graph):
        csr = CSRGraph.from_graph(tiny_graph)
        assert csr.neighbours(5).shape == (1,)
        with pytest.raises(IndexError):
            csr.neighbours(5)[1]  # degree(5) == 1

    def test_neighbours_match_graph(self, small_graph):
        csr = CSRGraph.from_graph(small_graph)
        for v in range(small_graph.num_nodes):
            assert np.array_equal(csr.neighbours(v), small_graph.neighbours(v))

    @pytest.mark.parametrize(
        "num_nodes,num_edges", [(2**31, 0), (4, 2**32)], ids=["nodes", "edges"]
    )
    def test_rejects_ids_beyond_32bit(self, num_nodes, num_edges):
        too_big = SimpleNamespace(num_nodes=num_nodes, num_edges=num_edges)
        with pytest.raises(ValueError, match="32-bit"):
            CSRGraph.from_graph(too_big)

    def test_counts(self, small_graph):
        csr = CSRGraph.from_graph(small_graph)
        assert csr.num_nodes == small_graph.num_nodes
        assert csr.num_edges == small_graph.num_edges
