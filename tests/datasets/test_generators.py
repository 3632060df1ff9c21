"""Tests for the synthetic graph generators."""

import numpy as np
import pytest

from repro.datasets.random_graph import uniform_random_graph
from repro.datasets.rmat import GRAPH500_PARAMS, SOCIAL_PARAMS, rmat_graph
from repro.datasets.web import web_graph
from tests.working_set import peak_bytes


class TestRmat:
    def test_basic_shape(self):
        g = rmat_graph(10, 8, seed=1)
        assert g.num_nodes == 1024
        # Dedup trims some edges; should stay near the target.
        assert 0.5 * 8 * 1024 < g.num_edges <= 8 * 1024

    def test_deterministic(self):
        a = rmat_graph(8, 4, seed=9)
        b = rmat_graph(8, 4, seed=9)
        assert np.array_equal(a.elist, b.elist)

    def test_graph500_skew_exceeds_social(self):
        kron = rmat_graph(12, 16, GRAPH500_PARAMS, seed=3, permute_ids=False)
        social = rmat_graph(12, 16, SOCIAL_PARAMS, seed=3, permute_ids=False)
        # Graph500 parameters concentrate edges far more heavily.
        assert kron.degrees.max() > 2 * social.degrees.max()

    def test_no_self_loops(self):
        g = rmat_graph(8, 8, seed=2)
        src = np.repeat(np.arange(g.num_nodes), g.degrees)
        assert not np.any(src == g.elist)

    def test_power_law_tail(self):
        g = rmat_graph(13, 16, GRAPH500_PARAMS, seed=4)
        deg = np.sort(g.degrees)[::-1]
        # Top vertex holds far more than the mean degree.
        assert deg[0] > 20 * deg[deg > 0].mean()

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            rmat_graph(0, 8)
        with pytest.raises(ValueError):
            rmat_graph(8, 8, params=(0.5, 0.5, 0.5, 0.5))
        with pytest.raises(ValueError, match="edge_factor"):
            rmat_graph(8, -1)


class TestWorkingSet:
    def test_rmat_graph_peak_per_edge(self):
        # The generator reuses one draw buffer per level and int32 ids,
        # and the dedup sorts its one int64 key in place and compacts
        # it: the whole build, Graph included, peaks at 30.8 B per
        # stored edge (39.9 B when the dedup sorted a copy of the key).
        peak = peak_bytes(rmat_graph, 14, 16, seed=1)
        per_edge = peak / rmat_graph(14, 16, seed=1).num_edges
        assert per_edge <= 31, per_edge


class TestUniformRandom:
    def test_shape(self):
        g = uniform_random_graph(1000, 8000, seed=1)
        assert g.num_nodes == 1000
        assert 7000 < g.num_edges <= 8000

    def test_no_degree_skew(self):
        g = uniform_random_graph(2000, 40000, seed=2)
        deg = g.degrees
        assert deg.max() < 8 * deg.mean()

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            uniform_random_graph(1, 10)
        with pytest.raises(ValueError):
            uniform_random_graph(10, -1)


class TestWebGraph:
    def test_shape(self):
        g = web_graph(5000, 20, seed=1)
        assert g.num_nodes == 5000
        assert g.num_edges > 5000 * 10

    def test_has_runs(self):
        from repro.reorder.metrics import gap_statistics

        g = web_graph(5000, 20, seed=2)
        # Web-like structure: a large fraction of unit gaps.
        assert gap_statistics(g)["unit_gap_fraction"] > 0.3

    def test_locality(self):
        from tests.graph_oracles import locality_statistics

        g = web_graph(10000, 20, seed=3)
        span = locality_statistics(g)["mean_edge_span"]
        assert span < 10000 / 4

    def test_symmetrized_has_hubs(self):
        # Zipf-popular pages become huge lists after symmetrisation —
        # the sk-05_sym effect the CGR cost model depends on.
        g = web_graph(20000, 25, seed=4).symmetrized()
        assert g.degrees.max() > 30 * g.degrees.mean()

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            web_graph(2, 5)
        with pytest.raises(ValueError):
            web_graph(100, 5, run_fraction=1.5)

    def test_deterministic(self):
        a = web_graph(1000, 10, seed=5)
        b = web_graph(1000, 10, seed=5)
        assert np.array_equal(a.elist, b.elist)
