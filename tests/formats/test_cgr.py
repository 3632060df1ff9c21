"""Tests for the CGR interval/residual baseline."""

import hashlib

import numpy as np
import pytest

from repro.datasets.rmat import rmat_graph
from repro.formats.cgr import (
    MIN_INTERVAL,
    _write_varint,
    _zigzag,
    cgr_decode_list,
    cgr_encode,
)
from repro.formats.graph import Graph
from repro.primitives.bitops import pack_varints
from tests.working_set import peak_bytes


# ----------------------------------------------------------------------
# Reference: the per-list encoder the batched one replaced, kept
# verbatim as the byte-identity oracle.
# ----------------------------------------------------------------------


def _find_intervals(nbrs: np.ndarray) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Split a sorted list into (left, length) intervals and residuals."""
    if nbrs.shape[0] == 0:
        return [], nbrs
    # Runs of consecutive integers: break where the gap is not exactly 1.
    breaks = np.flatnonzero(np.diff(nbrs) != 1)
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks + 1, [nbrs.shape[0]]])
    lengths = ends - starts
    is_interval = lengths >= MIN_INTERVAL
    intervals = [
        (int(nbrs[s]), int(l))
        for s, l in zip(starts[is_interval], lengths[is_interval])
    ]
    residual_mask = np.ones(nbrs.shape[0], dtype=bool)
    for s, e in zip(starts[is_interval], ends[is_interval]):
        residual_mask[s:e] = False
    return intervals, nbrs[residual_mask]


def _reference_encode_list(v: int, nbrs: np.ndarray) -> bytes:
    nbrs = np.asarray(nbrs, dtype=np.int64)
    out = bytearray()
    intervals, residuals = _find_intervals(nbrs)
    _write_varint(out, len(intervals))
    prev = v
    first = True
    for left, length in intervals:
        if first:
            _write_varint(out, _zigzag(left - prev))
            first = False
        else:
            _write_varint(out, left - prev)
        _write_varint(out, length - MIN_INTERVAL)
        prev = left + length
    _write_varint(out, residuals.shape[0])
    prev = v
    first = True
    for value in residuals:
        value = int(value)
        if first:
            _write_varint(out, _zigzag(value - prev))
            first = False
        else:
            _write_varint(out, value - prev - 1)
        prev = value
    return bytes(out)


def _reference_encode(graph: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(offsets, data, steps)`` from the per-list loop."""
    chunks: list[bytes] = []
    offsets = np.zeros(graph.num_nodes + 1, dtype=np.int64)
    steps = np.zeros(graph.num_nodes, dtype=np.int64)
    for v in range(graph.num_nodes):
        nbrs = graph.neighbours(v)
        blob = _reference_encode_list(v, nbrs)
        chunks.append(blob)
        offsets[v + 1] = offsets[v] + len(blob)
        intervals, residuals = _find_intervals(np.asarray(nbrs, dtype=np.int64))
        steps[v] = 2 + 2 * len(intervals) + int(residuals.shape[0])
    data = (
        np.frombuffer(b"".join(chunks), dtype=np.uint8)
        if chunks
        else np.empty(0, dtype=np.uint8)
    )
    return offsets, data, steps


def _random_adjacency(rng: np.random.Generator, n: int) -> list[list[int]]:
    """Lists mixing empty rows, runs of every length around
    MIN_INTERVAL, scattered ids, and ids below the source."""
    adjacency = []
    for v in range(n):
        kind = int(rng.integers(0, 4))
        if kind == 0:
            adjacency.append([])
            continue
        ids: set[int] = set()
        for _ in range(int(rng.integers(1, 4))):
            start = int(rng.integers(0, n))
            ids.update(range(start, min(n, start + int(rng.integers(1, 2 * MIN_INTERVAL)))))
        if kind > 1:
            ids.update(rng.integers(0, n, size=int(rng.integers(0, 10))).tolist())
        adjacency.append(sorted(ids))
    return adjacency


def _oracle_graphs() -> dict[str, Graph]:
    rng = np.random.default_rng(12)
    graphs = {
        "zero-edge": Graph.from_adjacency([[] for _ in range(5)]),
        "single-vertex": Graph.from_adjacency([[0]]),
        "single-vertex-empty": Graph.from_adjacency([[]]),
        "zero-vertex": Graph(vlist=np.zeros(1), elist=np.zeros(0)),
        "empty-ends": Graph.from_adjacency(
            [[], [0, 5, 6], [1, 2, 3, 4], [], [], [], [6], []]
        ),
        # List 0 ends at 9, list 1 starts at 10: the run must break.
        "run-across-boundary": Graph.from_adjacency(
            [[6, 7, 8, 9], [10, 11, 12, 13], [14, 15], [16, 17, 18, 19, 20]]
            + [[] for _ in range(17)]
        ),
        "run-lengths": Graph.from_adjacency(
            [list(range(10, 10 + MIN_INTERVAL - 1)) + [20]
             + list(range(30, 30 + MIN_INTERVAL)) + [40]]
            + [list(range(2, 2 + MIN_INTERVAL))]
            + [[] for _ in range(40)]
        ),
        "below-source": Graph.from_adjacency(
            [[] for _ in range(30)] + [[0, 1, 2, 3, 4, 9, 12, 29]]
        ),
        "hub": Graph.from_adjacency(
            [sorted(set(rng.integers(0, 3000, size=2500).tolist()))
             + list(range(3001, 3050))]
            + [[int(rng.integers(0, 3050))] for _ in range(3049)]
        ),
    }
    for i in range(40):
        graphs[f"random-{i}"] = Graph.from_adjacency(
            _random_adjacency(rng, int(rng.integers(1, 80)))
        )
    return graphs


_ORACLE_GRAPHS = _oracle_graphs()


def _encode_rows(rows: dict[int, np.ndarray]) -> dict[int, tuple[np.ndarray, int]]:
    """``{v: (payload, steps)}`` of each list through one ``cgr_encode`` of
    a graph whose row ``v`` holds ``rows[v]`` and whose other rows are empty."""
    rows = {v: np.asarray(nbrs, dtype=np.int64) for v, nbrs in sorted(rows.items())}
    top = max(max(rows), max(int(n.max(initial=0)) for n in rows.values()))
    degrees = np.zeros(top + 2, dtype=np.int64)
    for v, nbrs in rows.items():
        degrees[v + 1] = nbrs.shape[0]
    elist = np.concatenate([np.empty(0, dtype=np.int64), *rows.values()])
    cg = cgr_encode(Graph(vlist=np.cumsum(degrees), elist=elist))
    return {
        v: (cg.data[cg.offsets[v] : cg.offsets[v + 1]], int(cg.steps[v]))
        for v in rows
    }


def _encode_list(v: int, nbrs: np.ndarray) -> np.ndarray:
    """The payload of one list of vertex ``v``."""
    return _encode_rows({v: nbrs})[v][0]


class TestBatchedMatchesReference:
    @pytest.mark.parametrize(
        "graph", list(_ORACLE_GRAPHS.values()), ids=list(_ORACLE_GRAPHS)
    )
    def test_byte_identical(self, graph):
        cg = cgr_encode(graph)
        offsets, data, steps = _reference_encode(graph)
        assert cg.offsets.dtype == offsets.dtype and np.array_equal(cg.offsets, offsets)
        assert cg.data.dtype == data.dtype and np.array_equal(cg.data, data)
        assert cg.steps.dtype == steps.dtype and np.array_equal(cg.steps, steps)

    def test_single_list_entry_points(self, rng):
        adjacency = _random_adjacency(rng, 60)
        encoded = _encode_rows(dict(enumerate(adjacency)))
        for v, nbrs in enumerate(adjacency):
            nbrs = np.asarray(nbrs, dtype=np.int64)
            blob, steps = encoded[v]
            assert blob.tobytes() == _reference_encode_list(v, nbrs)
            intervals, residuals = _find_intervals(nbrs)
            assert steps == 2 + 2 * len(intervals) + residuals.shape[0]

    def test_pinned_digest(self):
        # Any drift in the encoder's output fails here, oracle or not.
        g = rmat_graph(12, 16, seed=1)
        cg = cgr_encode(g)
        assert (g.num_nodes, g.num_edges, cg.data.shape[0]) == (4096, 53305, 76427)
        assert cg.payload_crc == 552028339
        assert cg.meta_crc == 2495385840
        digest = hashlib.sha256(
            cg.offsets.tobytes() + cg.data.tobytes() + cg.steps.tobytes()
        ).hexdigest()
        assert digest == (
            "92a298f1999ff907c3496d905189fd61fe4f43634e814ad4682b0b0e71f498fe"
        )

    def test_pinned_digest_s16(self):
        # The e2e benchmark graph's size class, where the token and
        # varint passes run over a million edges.
        g = rmat_graph(16, 16, seed=3)
        cg = cgr_encode(g)
        assert cg.data.shape[0] == 1760936
        assert (cg.payload_crc, cg.meta_crc) == (1968408904, 505519932)
        digest = hashlib.sha256(
            cg.offsets.tobytes() + cg.data.tobytes() + cg.steps.tobytes()
        ).hexdigest()
        assert digest == (
            "9ca14cfa3b0514cbe40678b51dcf9769381e18f81ae78a04131f11daacfdb625"
        )


class TestWorkingSet:
    def test_cgr_encode_peak_per_edge(self):
        # No per-edge owner array and uint8 varint lengths: the encode,
        # outputs included, peaks at no more than 64 B per edge.
        g = rmat_graph(14, 16, seed=1)
        per_edge = peak_bytes(cgr_encode, g) / g.num_edges
        assert per_edge <= 64, per_edge


class TestInputContract:
    @pytest.mark.parametrize("elist", [[3, 1], [1, 1]], ids=["unsorted", "duplicate"])
    def test_bad_row_raises_value_error(self, elist):
        g = Graph(vlist=np.array([0, 0, 2, 2, 2]), elist=np.array(elist))
        with pytest.raises(ValueError, match="non-negative"):
            cgr_encode(g)

    def test_varint_packer_boundaries(self):
        values = [0, 1, 2**63 - 1]
        for k in range(1, 10):
            values += [2 ** (7 * k) - 1, 2 ** (7 * k)]
        data, ends = pack_varints(np.array(values, dtype=np.uint64))
        blobs = []
        for value in values:
            out = bytearray()
            _write_varint(out, value)
            blobs.append(bytes(out))
        assert data.tobytes() == b"".join(blobs)
        assert ends.tolist() == np.cumsum([len(b) for b in blobs]).tolist()


class TestListRoundtrip:
    def test_residuals_only(self, rng):
        # Twenty lists, one row each (vertices 10..29) of one encode.
        rows = {}
        for v in range(10, 30):
            nbrs = np.unique(rng.integers(0, 10**6, size=int(rng.integers(1, 30))))
            # Force no runs by spacing.
            rows[v] = nbrs * 3
        for v, (blob, _) in _encode_rows(rows).items():
            assert np.array_equal(cgr_decode_list(v, blob), rows[v])

    def test_single_interval(self):
        nbrs = np.arange(100, 120)
        assert np.array_equal(cgr_decode_list(5, _encode_list(5, nbrs)), nbrs)

    def test_mixed(self, rng):
        # Thirty lists, one row each (vertices 99..128) of one encode.
        rows = {}
        for v in range(99, 129):
            runs = [np.arange(s, s + rng.integers(MIN_INTERVAL, 20))
                    for s in rng.choice(10**5, size=3, replace=False) * 7]
            scattered = rng.integers(10**6, 2 * 10**6, size=5)
            rows[v] = np.unique(np.concatenate(runs + [scattered]))
        for v, (blob, _) in _encode_rows(rows).items():
            assert np.array_equal(cgr_decode_list(v, blob), rows[v])

    def test_empty_list(self):
        blob = _encode_list(0, np.array([], dtype=np.int64))
        assert cgr_decode_list(0, blob).shape == (0,)

    def test_neighbour_below_source(self):
        # First gap can be negative relative to the source id (zigzag).
        nbrs = np.array([2, 90])
        assert np.array_equal(cgr_decode_list(50, _encode_list(50, nbrs)), nbrs)

    def test_short_runs_stay_residuals(self):
        # Runs below MIN_INTERVAL are not promoted to intervals.
        nbrs = np.array([10, 11, 12, 100])  # run of 3 < MIN_INTERVAL=4
        blob, steps = _encode_rows({0: nbrs})[0]
        assert np.array_equal(cgr_decode_list(0, blob), nbrs)
        assert steps == 2 + 0 + 4


class TestWholeGraph:
    def test_roundtrip(self, small_graph):
        cg = cgr_encode(small_graph)
        for v in range(small_graph.num_nodes):
            assert np.array_equal(cg.neighbours(v), small_graph.neighbours(v))

    def test_offsets_monotone(self, small_graph):
        cg = cgr_encode(small_graph)
        assert np.all(np.diff(cg.offsets) >= 0)
        assert cg.offsets[-1] == cg.data.shape[0]

    def test_steps_counts(self, small_graph):
        cg = cgr_encode(small_graph)
        for v in range(0, small_graph.num_nodes, 7):
            intervals, residuals = _find_intervals(small_graph.neighbours(v))
            assert cg.steps[v] == 2 + 2 * len(intervals) + residuals.shape[0]

    def test_list_nbytes(self, small_graph):
        cg = cgr_encode(small_graph)
        v = np.arange(small_graph.num_nodes)
        sizes = cg.list_nbytes(v)
        assert sizes.sum() == cg.data.shape[0]

    def test_compresses_runs_well(self):
        # A graph of long runs: CGR bytes/edge far below 4.
        adjacency = [list(range(10, 200))] + [[] for _ in range(200)]
        g = Graph.from_adjacency(adjacency)
        cg = cgr_encode(g)
        assert cg.list_nbytes(np.array([0]))[0] < 10

    def test_compression_hurt_by_random_order(self, rng):
        # Gap coding degrades when ids are scrambled (Fig. 12b).
        n = 500
        adjacency = [np.arange(i, min(i + 20, n)) for i in range(n)]
        g = Graph.from_adjacency(adjacency)
        scrambled = g.relabelled(rng.permutation(n))
        assert cgr_encode(scrambled).nbytes > 1.5 * cgr_encode(g).nbytes
