"""Tests for the Graph container."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.efg import efg_encode
from repro.formats.graph import Graph
from repro.primitives.unique import sorted_unique
from tests.graph_oracles import has_sorted_rows


def _reference_from_edges(src, dst, num_nodes=None):
    """``(vlist, elist)`` by the earlier dedup, kept as the oracle: an
    int64 key, ``sorted_unique``, ``//`` and ``%``, ``bincount``."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if num_nodes is None:
        num_nodes = int(max(src.max(initial=-1), dst.max(initial=-1)) + 1)
    key = sorted_unique(src * np.int64(num_nodes) + dst)
    degrees = np.bincount(key // num_nodes, minlength=num_nodes)
    vlist = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(degrees, out=vlist[1:])
    return vlist, key % num_nodes


class TestConstruction:
    def test_from_edges_sorts_and_dedupes(self):
        g = Graph.from_edges(
            np.array([1, 0, 0, 1, 0]), np.array([0, 2, 1, 0, 2]), num_nodes=3
        )
        assert g.neighbours(0).tolist() == [1, 2]
        assert g.neighbours(1).tolist() == [0]
        assert g.num_edges == 3

    def test_from_adjacency(self, tiny_graph):
        assert tiny_graph.num_nodes == 8
        assert tiny_graph.neighbours(4).tolist() == [2, 3, 7]

    def test_infers_num_nodes(self):
        g = Graph.from_edges(np.array([0, 5]), np.array([5, 0]))
        assert g.num_nodes == 6

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(np.array([0]), np.array([5]), num_nodes=3)

    def test_rejects_negative_ids(self):
        with pytest.raises(ValueError):
            Graph.from_edges(np.array([-1]), np.array([0]), num_nodes=2)

    @pytest.mark.parametrize("src, num_nodes", [(3037000500, None), (0, 2**32)])
    def test_rejects_key_overflow(self, src, num_nodes):
        # The sort key src * num_nodes + dst must fit int64; at
        # 3,037,000,501 vertices it would wrap negative.  Refused before
        # any per-vertex array is allocated.
        with pytest.raises(ValueError, match="overflow"):
            Graph.from_edges(np.array([src]), np.array([0]), num_nodes=num_nodes)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Graph.from_edges(np.array([0, 1]), np.array([1]), num_nodes=2)

    def test_rejects_bad_vlist(self):
        with pytest.raises(ValueError):
            Graph(vlist=np.array([1, 2]), elist=np.array([0, 1]))
        with pytest.raises(ValueError):
            Graph(vlist=np.array([0, 2, 1]), elist=np.array([0]))

    def test_empty_graph(self):
        g = Graph(vlist=np.array([0]), elist=np.array([], dtype=np.int64))
        assert g.num_nodes == 0
        assert g.num_edges == 0


class TestFromEdgesMatchesReference:
    @given(
        num_nodes=st.integers(1, 300),
        dtype=st.sampled_from([np.int32, np.int64, np.uint32]),
        infer=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, num_nodes, dtype, infer, data):
        ids = st.integers(0, num_nodes - 1)
        # Few distinct ids make duplicates and self loops common.
        pairs = data.draw(
            st.lists(st.tuples(ids, ids), max_size=80)
            | st.lists(st.tuples(st.sampled_from([0, num_nodes - 1]), ids), max_size=20)
        )
        src = np.array([u for u, _ in pairs], dtype=dtype)
        dst = np.array([v for _, v in pairs], dtype=dtype)
        src_before, dst_before = src.copy(), dst.copy()
        n = None if infer else num_nodes
        g = Graph.from_edges(src, dst, num_nodes=n)
        vlist, elist = _reference_from_edges(src, dst, n)
        assert g.vlist.dtype == g.elist.dtype == np.int64
        assert np.array_equal(g.vlist, vlist)
        assert np.array_equal(g.elist, elist)
        # The inputs are neither mutated nor replaced.
        assert src.dtype == dst.dtype == dtype
        assert np.array_equal(src, src_before)
        assert np.array_equal(dst, dst_before)

    @pytest.mark.parametrize("num_nodes", [None, 0, 5])
    def test_empty_input(self, num_nodes):
        g = Graph.from_edges([], [], num_nodes=num_nodes)
        vlist, elist = _reference_from_edges([], [], num_nodes)
        assert np.array_equal(g.vlist, vlist) and g.num_edges == 0
        assert g.num_nodes == (num_nodes or 0)

    def test_keeps_self_loops_and_drops_duplicates(self):
        src = np.array([2, 2, 0, 2], dtype=np.int32)
        dst = np.array([2, 2, 1, 0], dtype=np.int32)
        g = Graph.from_edges(src, dst, num_nodes=3)
        assert g.vlist.tolist() == [0, 1, 1, 3]
        assert g.elist.tolist() == [1, 0, 2]


class TestQueries:
    def test_degrees(self, tiny_graph):
        assert tiny_graph.degrees.tolist() == [2, 2, 2, 2, 3, 1, 1, 2]

    def test_has_sorted_rows(self, small_graph):
        assert has_sorted_rows(small_graph)

    def test_unsorted_rows_detected(self):
        g = Graph(vlist=np.array([0, 2, 2]), elist=np.array([1, 0]), directed=True)
        assert not has_sorted_rows(g)

    def test_neighbours_bounds(self, tiny_graph):
        with pytest.raises(IndexError):
            tiny_graph.neighbours(8)

    @pytest.mark.parametrize(
        "make", [lambda g: g, efg_encode], ids=["Graph", "EFGraph"]
    )
    def test_replace_recomputes_degrees(self, make):
        # A memoised degree array must not survive a replaced vlist.
        g = make(Graph(vlist=np.array([0, 2, 3, 4]), elist=np.array([1, 2, 0, 0])))
        assert g.degrees.tolist() == [2, 1, 1]
        moved = replace(g, vlist=np.array([0, 1, 3, 4]))
        assert moved.degrees.tolist() == [1, 2, 1]

    def test_stats(self, tiny_graph):
        s = tiny_graph.stats()
        assert s["num_nodes"] == 8
        assert s["num_edges"] == 15
        assert s["max_degree"] == 3
        assert s["isolated_nodes"] == 0


class TestTransforms:
    def test_symmetrized_contains_both_arcs(self, small_graph):
        sym = small_graph.symmetrized()
        assert not sym.directed
        for v in range(0, small_graph.num_nodes, 13):
            for u in small_graph.neighbours(v):
                assert v in sym.neighbours(int(u))
                assert u in sym.neighbours(v)

    def test_symmetrized_name(self, small_graph):
        assert small_graph.symmetrized().name == "small_sym"

    def test_transposed_roundtrip(self, small_graph):
        assert np.array_equal(
            small_graph.transposed().transposed().elist, small_graph.elist
        )

    def test_transposed_reverses(self):
        g = Graph.from_edges(np.array([0]), np.array([1]), num_nodes=2)
        t = g.transposed()
        assert t.neighbours(1).tolist() == [0]
        assert t.neighbours(0).shape == (0,)

    def test_relabelled_identity(self, small_graph):
        perm = np.arange(small_graph.num_nodes)
        g2 = small_graph.relabelled(perm)
        assert np.array_equal(g2.elist, small_graph.elist)

    def test_relabelled_preserves_structure(self, small_graph, rng):
        perm = rng.permutation(small_graph.num_nodes)
        g2 = small_graph.relabelled(perm)
        assert g2.num_edges == small_graph.num_edges
        for v in range(0, small_graph.num_nodes, 17):
            expect = np.sort(perm[small_graph.neighbours(v)])
            assert np.array_equal(g2.neighbours(int(perm[v])), expect)

    def test_relabelled_rejects_non_permutation(self, small_graph):
        bad = np.zeros(small_graph.num_nodes, dtype=np.int64)
        with pytest.raises(ValueError):
            small_graph.relabelled(bad)

    def test_relabelled_rejects_wrong_length(self, small_graph):
        with pytest.raises(ValueError):
            small_graph.relabelled(np.array([0, 1]))
