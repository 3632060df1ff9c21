"""Tests for the reordering methods."""

import numpy as np
import pytest

from repro.formats.graph import Graph
from repro.reorder import (
    bp_order,
    halo_order,
    random_order,
)


def _assert_is_permutation(perm: np.ndarray, n: int) -> None:
    assert perm.shape == (n,)
    assert np.array_equal(np.sort(perm), np.arange(n))


@pytest.fixture
def locality_graph(rng):
    """Graph with recoverable locality, pre-scrambled."""
    n = 1200
    adjacency = [
        np.unique(
            np.clip(i + rng.integers(-12, 13, size=10), 0, n - 1)
        )
        for i in range(n)
    ]
    g = Graph.from_adjacency(adjacency, name="local")
    return g.relabelled(np.random.default_rng(4).permutation(n))


class TestPermutationValidity:
    def test_random(self, small_graph):
        _assert_is_permutation(
            random_order(small_graph, 1), small_graph.num_nodes
        )

    def test_bp(self, small_graph):
        _assert_is_permutation(bp_order(small_graph), small_graph.num_nodes)

    def test_halo(self, small_graph):
        _assert_is_permutation(halo_order(small_graph), small_graph.num_nodes)

    def test_halo_with_isolated_vertices(self):
        g = Graph.from_adjacency([[1], [0], [], []])
        _assert_is_permutation(halo_order(g), 4)


class TestSemantics:
    def test_random_orders_differ_by_seed(self, small_graph):
        a = random_order(small_graph, 1)
        b = random_order(small_graph, 2)
        assert not np.array_equal(a, b)

    def test_bp_deterministic(self, small_graph):
        assert np.array_equal(bp_order(small_graph), bp_order(small_graph))

    def test_bp_rejects_bad_min_block(self, small_graph):
        with pytest.raises(ValueError):
            bp_order(small_graph, min_block=1)


class TestEffectiveness:
    def test_bp_reduces_gaps(self, locality_graph):
        from repro.reorder.metrics import gap_statistics

        before = gap_statistics(locality_graph)["mean_log2_gap"]
        improved = locality_graph.relabelled(bp_order(locality_graph))
        after = gap_statistics(improved)["mean_log2_gap"]
        assert after < before

    def test_halo_improves_locality(self, locality_graph):
        from tests.graph_oracles import locality_statistics

        before = locality_statistics(locality_graph)["mean_edge_span"]
        improved = locality_graph.relabelled(halo_order(locality_graph))
        after = locality_statistics(improved)["mean_edge_span"]
        assert after < before

    def test_random_destroys_locality(self):
        n = 1000
        local = Graph.from_adjacency(
            [np.arange(i + 1, min(i + 6, n)) for i in range(n)]
        )
        from tests.graph_oracles import locality_statistics

        before = locality_statistics(local)["mean_edge_span"]
        scrambled = local.relabelled(random_order(local, 7))
        after = locality_statistics(scrambled)["mean_edge_span"]
        assert after > 10 * max(before, 1)

    def test_gap_codes_react_efg_does_not(self, locality_graph):
        # The Fig. 12 asymmetry in one test: BP changes CGR's size a
        # lot, EFG's almost not at all.
        from repro.core.efg import efg_encode
        from repro.formats.cgr import cgr_encode

        improved = locality_graph.relabelled(bp_order(locality_graph))
        cgr_delta = abs(
            cgr_encode(improved).nbytes - cgr_encode(locality_graph).nbytes
        ) / cgr_encode(locality_graph).nbytes
        efg_delta = abs(
            efg_encode(improved).nbytes - efg_encode(locality_graph).nbytes
        ) / efg_encode(locality_graph).nbytes
        assert cgr_delta > 3 * efg_delta
