"""Property-based tests for the EFG format and kernels."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.efg import decode_lists, efg_encode
from repro.core.kernels import (
    decompress_multiple_lists,
    decompress_partial_list,
    decompress_single_list,
)
from repro.formats.graph import Graph


def list_ids(efg, frontier):
    """For each decoded value, the index into ``frontier`` of its list."""
    return np.repeat(np.arange(len(frontier)), efg.degrees[frontier])


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 60))
    m = draw(st.integers(1, 500))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    return Graph.from_edges(
        rng.integers(0, n, m), rng.integers(0, n, m), num_nodes=n
    )


@st.composite
def mixed_l_graphs(draw):
    """4,096 vertices; the first few hold lists whose universes span 1
    to 4,096, so one batch mixes widths ``l`` from 0 to 12."""
    num_nodes = 4096
    lists = []
    for _ in range(draw(st.integers(1, 12))):
        span = 1 << draw(st.integers(0, 12))
        size = draw(st.integers(0, 40))
        seed = draw(st.integers(0, 2**31))
        lists.append(np.unique(np.random.default_rng(seed).integers(0, span, size)))
    degrees = np.zeros(num_nodes, dtype=np.int64)
    degrees[: len(lists)] = [a.shape[0] for a in lists]
    vlist = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(degrees, out=vlist[1:])
    elist = np.concatenate(lists).astype(np.int64)
    return Graph(vlist=vlist, elist=elist, directed=True), len(lists)


class TestEFGProperties:
    @given(graph=graphs(), quantum=st.sampled_from([1, 2, 8, 512]))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, graph, quantum):
        efg = efg_encode(graph, quantum=quantum)
        back = efg.to_graph()
        assert np.array_equal(back.elist, graph.elist)
        assert np.array_equal(back.vlist, graph.vlist)

    @given(graph=graphs())
    @settings(max_examples=40, deadline=None)
    def test_size_order_invariance(self, graph):
        # EF bounds depend only on per-list (n, u); a permutation
        # changes u per list but the aggregate stays within a few %.
        rng = np.random.default_rng(0)
        scrambled = graph.relabelled(rng.permutation(graph.num_nodes))
        a, b = efg_encode(graph).nbytes, efg_encode(scrambled).nbytes
        assert abs(a - b) <= 0.1 * max(a, b)

    @given(graph=graphs(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_batch_decode_matches_singles(self, graph, data):
        efg = efg_encode(graph)
        size = data.draw(st.integers(0, 20))
        batch = np.array(
            data.draw(
                st.lists(
                    st.integers(0, graph.num_nodes - 1),
                    min_size=size, max_size=size,
                )
            ),
            dtype=np.int64,
        )
        vals = decode_lists(efg, batch)
        expect = (
            np.concatenate([graph.neighbours(int(v)) for v in batch])
            if batch.size
            else np.empty(0, dtype=np.int64)
        )
        assert np.array_equal(vals, expect)

    @given(graph=graphs(), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_kernel_equivalence(self, graph, data):
        # The literal thread-block kernels agree with the fast path
        # for any frontier and any block size.
        efg = efg_encode(graph, quantum=4)
        frontier = np.array(
            data.draw(
                st.lists(st.integers(0, graph.num_nodes - 1), min_size=1,
                         max_size=15)
            ),
            dtype=np.int64,
        )
        epb = data.draw(st.sampled_from([1, 2, 5, 64]))
        vals, seg, _ = decompress_multiple_lists(efg, frontier, edges_per_block=epb)
        assert np.array_equal(vals, decode_lists(efg, frontier))
        assert np.array_equal(seg, list_ids(efg, frontier))

    @given(case=mixed_l_graphs(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_mixed_l_matches_kernel(self, case, data):
        # The whole-batch decoder (one field read over every width)
        # against the literal Alg. 2 multi-list kernel, at quantum 8.
        graph, num_lists = case
        efg = efg_encode(graph, quantum=8)
        frontier = np.array(
            data.draw(
                st.lists(st.integers(0, num_lists), min_size=1, max_size=20)
            ),
            dtype=np.int64,
        )
        vals, seg, _ = decompress_multiple_lists(efg, frontier)
        ref_vals = decode_lists(efg, frontier)
        assert np.array_equal(vals, ref_vals)
        assert np.array_equal(seg, list_ids(efg, frontier))
        expect = np.concatenate([graph.neighbours(int(v)) for v in frontier])
        assert np.array_equal(ref_vals, expect)

    @given(graph=graphs(), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_partial_list_any_range(self, graph, data):
        efg = efg_encode(graph, quantum=2)
        v = data.draw(st.integers(0, graph.num_nodes - 1))
        deg = int(graph.degrees[v])
        a = data.draw(st.integers(0, deg))
        b = data.draw(st.integers(a, deg))
        got = decompress_partial_list(efg, v, a, b)
        assert np.array_equal(got, graph.neighbours(v)[a:b])

    @given(graph=graphs(), dimx=st.sampled_from([1, 3, 32]))
    @settings(max_examples=30, deadline=None)
    def test_single_list_dimx_invariance(self, graph, dimx):
        efg = efg_encode(graph)
        v = int(np.argmax(graph.degrees))
        assert np.array_equal(
            decompress_single_list(efg, v, dimx=dimx), graph.neighbours(v)
        )
