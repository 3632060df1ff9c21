"""Tests for the EFG format: encoder, layout, batched decoder."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.efg import csr_gather_indices, decode_lists, efg_encode
from repro.datasets import rmat_graph
from repro.ef.bounds import ef_num_lower_bits
from repro.formats.csr import CSRGraph
from repro.formats.graph import Graph
from tests.working_set import peak_bytes


class TestCsrGatherIndices:
    def test_basic(self):
        idx, seg = csr_gather_indices(np.array([10, 50]), np.array([3, 2]))
        assert idx.tolist() == [10, 11, 12, 50, 51]
        assert seg.tolist() == [0, 0, 0, 1, 1]

    def test_empty_segments(self):
        idx, seg = csr_gather_indices(np.array([5, 9, 100]), np.array([0, 2, 0]))
        assert idx.tolist() == [9, 10]
        assert seg.tolist() == [1, 1]

    def test_all_empty(self):
        idx, seg = csr_gather_indices(np.array([1, 2]), np.array([0, 0]))
        assert idx.shape == (0,) and seg.shape == (0,)

    @given(
        segments=st.lists(
            st.tuples(st.integers(-50, 10**6), st.integers(0, 6)), max_size=30
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_per_segment_loop(self, segments):
        starts = np.array([s for s, _ in segments], dtype=np.int64)
        lengths = np.array([n for _, n in segments], dtype=np.int64)
        idx, seg = csr_gather_indices(starts, lengths)
        want_idx = [s + k for s, n in segments for k in range(n)]
        want_seg = [i for i, (_, n) in enumerate(segments) for _ in range(n)]
        assert idx.dtype == seg.dtype == np.int64
        assert idx.tolist() == want_idx
        assert seg.tolist() == want_seg


class TestWorkingSet:
    """The codec's host scratch scales with its output: a whole-graph
    decode or encode peaks at no more than 64 B per edge, outputs
    included, on a pinned RMAT graph."""

    BOUND_BYTES_PER_EDGE = 64

    @pytest.fixture(scope="class")
    def pinned(self):
        graph = rmat_graph(14, 16, seed=1)
        return graph, efg_encode(graph)

    def test_decode_lists_peak_per_edge(self, pinned):
        graph, efg = pinned
        efg.degrees  # the cached degree array is not decode scratch
        verts = np.arange(graph.num_nodes, dtype=np.int64)
        per_edge = peak_bytes(decode_lists, efg, verts) / graph.num_edges
        assert per_edge <= self.BOUND_BYTES_PER_EDGE, per_edge

    def test_efg_encode_peak_per_edge(self, pinned):
        graph, _ = pinned
        per_edge = peak_bytes(efg_encode, graph) / graph.num_edges
        assert per_edge <= self.BOUND_BYTES_PER_EDGE, per_edge


class TestEncoder:
    def test_fig3_example(self, tiny_graph):
        efg = efg_encode(tiny_graph)
        # Node 4: neighbours {2,3,7}, u=7, n=3 -> l = floor(log2(7/3)) = 1.
        assert efg.num_lower_bits[4] == 1
        assert np.array_equal(efg.vlist, tiny_graph.vlist)
        assert efg.neighbours(4).tolist() == [2, 3, 7]

    def test_num_lower_bits_formula(self, small_graph):
        efg = efg_encode(small_graph)
        for v in range(small_graph.num_nodes):
            nbrs = small_graph.neighbours(v)
            if nbrs.shape[0] == 0:
                continue
            expect = ef_num_lower_bits(nbrs.shape[0], int(nbrs[-1]))
            assert efg.num_lower_bits[v] == expect, v

    def test_roundtrip(self, small_graph):
        efg = efg_encode(small_graph)
        back = efg.to_graph()
        assert np.array_equal(back.vlist, small_graph.vlist)
        assert np.array_equal(back.elist, small_graph.elist)

    def test_roundtrip_various_quanta(self, small_graph):
        for k in (1, 2, 7, 64, 512):
            efg = efg_encode(small_graph, quantum=k)
            assert np.array_equal(efg.to_graph().elist, small_graph.elist)

    def test_forward_pointers_match_reference(self, rng):
        n = 300
        adjacency = [np.unique(rng.integers(0, 10**5, size=40)) for _ in range(2)]
        g = Graph.from_adjacency(adjacency + [[] for _ in range(10**5 - 2)])
        efg = efg_encode(g, quantum=8)
        for v in range(2):
            nbrs = g.neighbours(v)
            fwd = efg.forward_values(v)
            l = int(efg.num_lower_bits[v])
            for j, val in enumerate(fwd):
                assert val == int(nbrs[(j + 1) * 8 - 1]) >> l
        del n

    def test_empty_lists(self):
        g = Graph.from_adjacency([[1], [], [], [0, 1]])
        efg = efg_encode(g)
        assert efg.neighbours(1).shape == (0,)
        assert efg.neighbours(3).tolist() == [0, 1]

    def test_rejects_bad_quantum(self, small_graph):
        with pytest.raises(ValueError):
            efg_encode(small_graph, quantum=0)

    def test_offsets_monotone(self, small_graph):
        efg = efg_encode(small_graph)
        assert np.all(np.diff(efg.offsets) >= 0)
        assert efg.offsets[-1] == efg.data.shape[0]

    def test_section_geometry_adds_up(self, small_graph):
        efg = efg_encode(small_graph)
        v = np.arange(small_graph.num_nodes)
        total = efg.fwd_nbytes(v) + efg.lower_nbytes(v) + efg.upper_nbytes(v)
        assert np.array_equal(total, np.diff(efg.offsets))


class TestPinnedBytes:
    """Any drift in the encoder's output fails here by name."""

    @pytest.mark.parametrize(
        "quantum, nbytes, payload_crc, meta_crc, digest",
        [
            (512, 6629, 1164935986, 421851879,
             "efa7f494750a1961e35800056196588008e60a18ed0e5cc8c13692830f05a657"),
            (64, 6681, 3032054679, 147972110,
             "6e4bd87ff4628542b75675b2e4bbf3b3e4062d71f6c5b329ea1447fad5e28619"),
        ],
    )
    def test_pinned_digest(self, quantum, nbytes, payload_crc, meta_crc, digest):
        efg = efg_encode(rmat_graph(10, 8, seed=1), quantum=quantum)
        assert efg.data.shape[0] == nbytes
        assert (efg.payload_crc, efg.meta_crc) == (payload_crc, meta_crc)
        got = hashlib.sha256(
            efg.vlist.tobytes()
            + efg.num_lower_bits.tobytes()
            + efg.offsets.tobytes()
            + efg.data.tobytes()
        ).hexdigest()
        assert got == digest


class TestCompression:
    def test_beats_csr_on_typical_graphs(self, rng):
        n, m = 5000, 80000
        g = Graph.from_edges(
            rng.integers(0, n, m), rng.integers(0, n, m), num_nodes=n
        )
        csr = CSRGraph.from_graph(g)
        efg = efg_encode(g)
        assert efg.nbytes < csr.nbytes

    def test_order_independent_size(self, rng):
        # Fig. 12a: EFG compression is virtually unchanged by ordering.
        n, m = 2000, 30000
        g = Graph.from_edges(
            rng.integers(0, n, m), rng.integers(0, n, m), num_nodes=n
        )
        scrambled = g.relabelled(rng.permutation(n))
        a, b = efg_encode(g).nbytes, efg_encode(scrambled).nbytes
        assert abs(a - b) / a < 0.02


class TestBatchedDecode:
    def test_matches_per_list(self, small_graph, rng):
        efg = efg_encode(small_graph)
        batch = rng.integers(0, small_graph.num_nodes, size=40)
        vals = decode_lists(efg, batch)
        expect = np.concatenate(
            [small_graph.neighbours(int(v)) for v in batch]
        )
        assert np.array_equal(vals, expect)

    def test_duplicate_vertices_in_batch(self, small_graph):
        efg = efg_encode(small_graph)
        batch = np.array([5, 5, 5])
        vals = decode_lists(efg, batch)
        one = small_graph.neighbours(5)
        assert np.array_equal(vals, np.tile(one, 3))

    def test_empty_batch(self, small_graph):
        efg = efg_encode(small_graph)
        vals = decode_lists(efg, np.array([], dtype=np.int64))
        assert vals.shape == (0,) and vals.dtype == np.int64

    def test_batch_of_empty_lists(self):
        g = Graph.from_adjacency([[], [], [0]])
        efg = efg_encode(g)
        vals = decode_lists(efg, np.array([0, 1]))
        assert vals.shape == (0,)

    def test_mixed_lower_bit_widths(self, rng):
        # Lists with very different universes exercise the per-position
        # widths of the one lower-bits fetch.
        adjacency = [
            np.unique(rng.integers(0, 10, size=5)),
            np.unique(rng.integers(0, 10**6, size=5)),
            np.unique(rng.integers(0, 1000, size=20)),
        ]
        g = Graph.from_adjacency(
            [a for a in adjacency] + [[] for _ in range(10**6 - 3)]
        )
        efg = efg_encode(g)
        vals = decode_lists(efg, np.array([0, 1, 2]))
        expect = np.concatenate([g.neighbours(v) for v in range(3)])
        assert np.array_equal(vals, expect)


class TestAccounting:
    def test_nbytes_formula(self, small_graph):
        efg = efg_encode(small_graph)
        nv = small_graph.num_nodes
        expect = 4 * (nv + 1) + nv + 4 * (nv + 1) + efg.data.shape[0]
        assert efg.nbytes == expect

    def test_size_predictable_a_priori(self, small_graph):
        # The paper: EFG size is computable from (n, u) per list without
        # encoding.  Verify data section matches the bound arithmetic.
        from repro.ef.bounds import ef_lower_bits, ef_upper_bits

        efg = efg_encode(small_graph, quantum=512)
        predicted = 0
        for v in range(small_graph.num_nodes):
            nbrs = small_graph.neighbours(v)
            n = nbrs.shape[0]
            if n == 0:
                continue
            u = int(nbrs[-1])
            predicted += (n // 512) * 4
            predicted += (ef_lower_bits(n, u) + 7) // 8
            predicted += (ef_upper_bits(n, u) + 7) // 8
        assert predicted == efg.data.shape[0]
