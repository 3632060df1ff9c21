"""Tests for EF successor/membership/intersection queries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ef.encoding import ef_encode
from repro.ef.queries import ef_intersect, ef_next_geq


class TestNextGeq:
    def test_basic(self):
        seq = ef_encode(np.array([3, 7, 7, 20, 100]), quantum=2)
        assert ef_next_geq(seq, 0) == (3, 0)
        assert ef_next_geq(seq, 3) == (3, 0)
        assert ef_next_geq(seq, 4) == (7, 1)
        assert ef_next_geq(seq, 8) == (20, 3)
        assert ef_next_geq(seq, 100) == (100, 4)
        assert ef_next_geq(seq, 101) == (-1, 5)

    @given(
        values=st.sets(st.integers(0, 10**6), min_size=1, max_size=200).map(sorted),
        query=st.integers(0, 10**6 + 10),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_searchsorted(self, values, query):
        vals = np.array(values, dtype=np.int64)
        seq = ef_encode(vals, quantum=8)
        value, idx = ef_next_geq(seq, query)
        pos = int(np.searchsorted(vals, query))
        if pos == vals.shape[0]:
            assert value == -1 and idx == vals.shape[0]
        else:
            assert value == vals[pos]
            assert idx == pos


class TestContains:
    def test_members_and_nonmembers(self, rng):
        # Membership is a successor query that lands on the probe itself.
        vals = np.unique(rng.integers(0, 10**5, size=300))
        seq = ef_encode(vals, quantum=16)
        members = set(vals.tolist())
        for probe in rng.integers(0, 10**5, size=200):
            found = ef_next_geq(seq, int(probe))[0] == int(probe)
            assert found == (int(probe) in members)


class TestIntersect:
    @given(
        a=st.sets(st.integers(0, 5000), min_size=1, max_size=200),
        b=st.sets(st.integers(0, 5000), min_size=1, max_size=200),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_numpy(self, a, b):
        va = np.array(sorted(a), dtype=np.int64)
        vb = np.array(sorted(b), dtype=np.int64)
        got = ef_intersect(ef_encode(va, quantum=8), ef_encode(vb, quantum=8))
        assert np.array_equal(got, np.intersect1d(va, vb))

    def test_skewed_sizes(self, rng):
        small = np.unique(rng.integers(0, 10**6, size=10))
        big = np.unique(rng.integers(0, 10**6, size=5000))
        got = ef_intersect(ef_encode(small), ef_encode(big))
        assert np.array_equal(got, np.intersect1d(small, big))

    def test_disjoint(self):
        a = ef_encode(np.array([1, 3, 5]))
        b = ef_encode(np.array([2, 4, 6]))
        assert ef_intersect(a, b).shape == (0,)


class TestEFGraphQueries:
    def test_edge_at_matches_decode(self, small_graph):
        from repro.core.efg import efg_encode

        efg = efg_encode(small_graph, quantum=4)
        for v in range(0, small_graph.num_nodes, 11):
            nbrs = small_graph.neighbours(v)
            for i in range(nbrs.shape[0]):
                assert efg.edge_at(v, i) == nbrs[i], (v, i)

    def test_edge_at_bounds(self, small_graph):
        from repro.core.efg import efg_encode

        efg = efg_encode(small_graph)
        with pytest.raises(IndexError):
            efg.edge_at(0, 10**6)

    def test_has_edge(self, small_graph, rng):
        from repro.core.efg import efg_encode

        efg = efg_encode(small_graph, quantum=8)
        for u in rng.integers(0, small_graph.num_nodes, size=25):
            nbrs = set(small_graph.neighbours(int(u)).tolist())
            for v in rng.integers(0, small_graph.num_nodes, size=10):
                assert efg.has_edge(int(u), int(v)) == (int(v) in nbrs)
