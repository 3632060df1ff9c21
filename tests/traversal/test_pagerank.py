"""Tests for PageRank."""

import hashlib

import numpy as np
import pytest

from repro.core.efg import efg_encode
from repro.datasets import rmat_graph
from repro.formats.csr import CSRGraph
from repro.formats.graph import Graph
from repro.gpusim.device import TITAN_XP
from repro.traversal.backends import CSRBackend, EFGBackend, build_backend
from repro.traversal.pagerank import pagerank
from repro.traversal.validate import reference_pagerank


class TestPinnedRanks:
    """The ranks are bit-identical to a pinned run: a change to how the
    per-edge shares are formed must keep every IEEE operation."""

    #: sha256 of the float64 ranks on rmat_graph(12, 16, seed=2), defaults.
    DIGEST = "b15e1c3d1a3538a1eda0add5370623c4c4b778b3ac3304354265956025e1e5d3"

    @pytest.fixture(scope="class")
    def graph(self):
        return rmat_graph(12, 16, seed=2)

    @pytest.mark.parametrize("fmt", ["csr", "efg", "cgr"])
    def test_ranks_digest(self, graph, fmt):
        r = pagerank(build_backend(fmt, graph, TITAN_XP))
        assert r.iterations == 11
        assert hashlib.sha256(r.ranks.tobytes()).hexdigest() == self.DIGEST


class TestCorrectness:
    @pytest.mark.parametrize("fmt", ["csr", "efg"])
    def test_matches_reference(self, small_graph, scaled_device, fmt):
        backend = (
            CSRBackend(CSRGraph.from_graph(small_graph), scaled_device)
            if fmt == "csr"
            else EFGBackend(efg_encode(small_graph), scaled_device)
        )
        ref = reference_pagerank(small_graph)
        got = pagerank(backend, max_iterations=200, tolerance=1e-12).ranks
        assert np.allclose(got, ref, atol=1e-8)

    def test_ranks_sum_to_one(self, small_graph, scaled_device):
        backend = EFGBackend(efg_encode(small_graph), scaled_device)
        r = pagerank(backend)
        assert r.ranks.sum() == pytest.approx(1.0, abs=1e-9)

    def test_iteration_cap(self, small_graph, scaled_device):
        backend = CSRBackend(CSRGraph.from_graph(small_graph), scaled_device)
        r = pagerank(backend, max_iterations=5, tolerance=0.0)
        assert r.iterations == 5
        assert not r.converged

    def test_convergence_flag(self, small_graph, scaled_device):
        backend = CSRBackend(CSRGraph.from_graph(small_graph), scaled_device)
        r = pagerank(backend, max_iterations=500, tolerance=1e-9)
        assert r.converged

    def test_dangling_mass_handled(self, scaled_device):
        # A sink vertex must not leak rank mass.
        g = Graph.from_adjacency([[1], [2], []])
        backend = CSRBackend(CSRGraph.from_graph(g), scaled_device)
        r = pagerank(backend, max_iterations=300, tolerance=1e-12)
        assert r.ranks.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(r.ranks, reference_pagerank(g), atol=1e-8)

    def test_star_graph_hub_dominates(self, scaled_device):
        spokes = 20
        adjacency = [[spokes]] * spokes + [[]]
        g = Graph.from_adjacency(adjacency)
        backend = EFGBackend(efg_encode(g), scaled_device)
        r = pagerank(backend, max_iterations=300)
        assert r.ranks[spokes] > r.ranks[0] * 3

    def test_rejects_bad_damping(self, small_graph, scaled_device):
        backend = CSRBackend(CSRGraph.from_graph(small_graph), scaled_device)
        with pytest.raises(ValueError):
            pagerank(backend, damping=1.5)


class TestCosting:
    def test_each_iteration_charged(self, small_graph, scaled_device):
        backend = EFGBackend(efg_encode(small_graph), scaled_device)
        r5 = pagerank(backend, max_iterations=5, tolerance=0.0)
        r10 = pagerank(backend, max_iterations=10, tolerance=0.0)
        # Twice the iterations should cost roughly twice the time.
        assert r10.sim_seconds == pytest.approx(2 * r5.sim_seconds, rel=0.15)

    def test_edges_processed(self, small_graph, scaled_device):
        backend = CSRBackend(CSRGraph.from_graph(small_graph), scaled_device)
        r = pagerank(backend, max_iterations=3, tolerance=0.0)
        assert r.edges_processed == 3 * small_graph.num_edges
