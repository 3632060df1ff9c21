"""CGR baseline — interval/residual compression with VLC gaps.

Reimplementation of the encoding of Sha, Li & Tan, *GPU-based graph
traversal on compressed graphs* (SIGMOD'19), the paper's GPU
state-of-the-art comparator:

* Each sorted neighbour list is split into maximal **intervals** (runs
  of consecutive ids with length >= ``MIN_INTERVAL``) and leftover
  **residuals**.
* Interval left endpoints and lengths, and residual values, are
  **gap-transformed** (the first residual relative to the source vertex
  id, sign-zigzagged) and written with a byte-oriented variable-length
  code (7 payload bits + continuation bit).

Encoding is batched: :func:`cgr_encode` lays out every list's varint
tokens with array passes over the whole CSR and packs them in at most
ten scatter passes, one per byte index.

Decoding a list is a *sequential dependent chain* — each varint must be
parsed before the next can start — which is precisely why the paper's
EFG wins on decompression throughput and why CGR cannot split a single
list across thread blocks the way EFG's forward pointers allow.

Compression behaviour reproduced: excellent on web-graphs (long runs ->
intervals), mediocre on social/random graphs, badly hurt by random
reordering (gaps blow up) — Figs. 8 and 12.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import CorruptMetadataError, CorruptStreamError
from repro.formats.graph import Graph
from repro.formats.integrity import arrays_crc32
from repro.primitives.bitops import pack_varints

__all__ = ["CGRGraph", "cgr_encode", "cgr_encode_list", "cgr_decode_list", "cgr_list_steps"]

#: Minimum run length promoted to an interval (CGR default).
MIN_INTERVAL = 4


def _zigzag(value: int | np.ndarray) -> int | np.ndarray:
    """Map a signed int to an unsigned one (0,-1,1,-2,... -> 0,1,2,3,...).

    Also maps an int64 array elementwise.
    """
    return (value << 1) ^ (value >> 63)


def _unzigzag(value: int) -> int:
    """Inverse of :func:`_zigzag`."""
    return (value >> 1) ^ -(value & 1)


def _write_varint(out: bytearray, value: int) -> None:
    """Append a 7-bit-payload varint (continuation bit = 0x80)."""
    if value < 0:
        raise ValueError(f"varint requires non-negative value, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: np.ndarray, pos: int) -> tuple[int, int]:
    """Read one varint at byte offset ``pos``; return (value, new_pos).

    Bounds-checked: running off the end of the payload, or a
    continuation chain longer than a 64-bit value can need, raises a
    typed error instead of IndexError / an unbounded integer.
    """
    value = 0
    shift = 0
    end = int(data.shape[0])
    while True:
        if pos >= end:
            raise CorruptStreamError(
                f"varint truncated at byte {pos} of {end}", fmt="cgr"
            )
        if shift > 63:
            raise CorruptStreamError(
                f"varint continuation chain exceeds 64 bits at byte {pos}",
                fmt="cgr",
            )
        byte = int(data[pos])
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7


def _encode_lists(
    vlist: np.ndarray, elist: np.ndarray, first_vertex: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Encode every list of a CSR ``(vlist, elist)`` in a few array passes.

    List ``i`` belongs to vertex ``first_vertex + i``.  Each list's
    tokens are ``[#iv, (gap, len-MIN)*, #res, res*]``, varint-packed.
    The first interval gap and the first residual are zigzagged
    relative to the vertex; later interval gaps are ``left - prev_end``
    and later residual gaps ``value - prev - 1``.  Returns ``(offsets,
    data, steps)``: per-list byte offsets, the payload, and the tokens
    per list (the decode chain length).

    Raises ``ValueError`` when a token is negative, which an unsorted
    or duplicated list produces.
    """
    num_lists = vlist.shape[0] - 1
    num_edges = elist.shape[0]
    deg = np.diff(vlist)
    owner = np.repeat(np.arange(num_lists, dtype=np.int64), deg)

    # Runs of consecutive ids; a list start always starts a run.
    run_start = np.ones(num_edges, dtype=bool)
    np.not_equal(elist[1:], elist[:-1] + 1, out=run_start[1:])
    run_start[vlist[:-1][deg > 0]] = True
    run_first = np.flatnonzero(run_start)
    run_len = np.diff(np.append(run_first, num_edges))
    is_interval = run_len >= MIN_INTERVAL
    iv_first = run_first[is_interval]
    iv_len = run_len[is_interval]
    iv_left = elist[iv_first]
    iv_owner = owner[iv_first]
    res_idx = np.flatnonzero(~np.repeat(is_interval, run_len))
    res_val = elist[res_idx]
    res_owner = owner[res_idx]

    n_iv = np.bincount(iv_owner, minlength=num_lists)
    n_res = np.bincount(res_owner, minlength=num_lists)
    steps = 2 + 2 * n_iv + n_res
    tok_bounds = np.zeros(num_lists + 1, dtype=np.int64)
    np.cumsum(steps, out=tok_bounds[1:])
    tok_first = tok_bounds[:-1]

    tokens = np.empty(int(tok_bounds[-1]), dtype=np.int64)
    tokens[tok_first] = n_iv
    tokens[tok_first + 1 + 2 * n_iv] = n_res

    # Interval j is number j - (intervals before its list) of its list.
    iv_rank = np.arange(iv_owner.shape[0]) - (np.cumsum(n_iv) - n_iv)[iv_owner]
    iv_pos = tok_first[iv_owner] + 1 + 2 * iv_rank
    iv_gap = np.empty_like(iv_left)
    iv_gap[1:] = iv_left[1:] - (iv_left[:-1] + iv_len[:-1])
    head = iv_rank == 0
    iv_gap[head] = _zigzag(iv_left[head] - (iv_owner[head] + first_vertex))
    tokens[iv_pos] = iv_gap
    tokens[iv_pos + 1] = iv_len - MIN_INTERVAL

    res_rank = np.arange(res_owner.shape[0]) - (np.cumsum(n_res) - n_res)[res_owner]
    res_gap = np.empty_like(res_val)
    res_gap[1:] = res_val[1:] - res_val[:-1] - 1
    head = res_rank == 0
    res_gap[head] = _zigzag(res_val[head] - (res_owner[head] + first_vertex))
    tokens[(tok_first + 2 + 2 * n_iv)[res_owner] + res_rank] = res_gap

    negative = np.flatnonzero(tokens < 0)
    if negative.shape[0]:
        raise ValueError(
            f"varint requires non-negative value, got {int(tokens[negative[0]])}"
        )
    data, byte_ends = pack_varints(tokens.view(np.uint64))
    offsets = np.concatenate([[0], byte_ends])[tok_bounds]
    return offsets, data, steps


def cgr_encode_list(v: int, nbrs: np.ndarray) -> bytes:
    """Encode one neighbour list of vertex ``v``.

    Layout: ``#intervals, [left-gaps..., len-MIN...], #residuals,
    [first residual zigzag-relative-to-v, gaps - 1 ...]`` all varints.
    """
    nbrs = np.asarray(nbrs, dtype=np.int64)
    _, data, _ = _encode_lists(np.array([0, nbrs.shape[0]]), nbrs, v)
    return data.tobytes()


def cgr_decode_list(
    v: int,
    data: np.ndarray,
    offset: int = 0,
    expected_degree: int | None = None,
) -> np.ndarray:
    """Sequentially decode one list (the dependent-chain decoder).

    When ``expected_degree`` is given (the container knows the degree
    from its vlist) the decoder rejects any chain whose counts or
    interval lengths would produce a different number of neighbours —
    corruption of the leading count varints otherwise turns into huge
    allocations or silently short lists.
    """
    data = np.asarray(data, dtype=np.uint8)
    try:
        return _cgr_decode_list_inner(v, data, offset, expected_degree)
    except CorruptStreamError as exc:
        if exc.vertex is None:
            raise CorruptStreamError(exc.detail, fmt="cgr", vertex=v) from exc
        raise


#: Hard cap on a single decoded interval when the caller supplies no
#: degree — keeps a corrupt length varint from requesting a giant arange.
_MAX_UNCHECKED_INTERVAL = 1 << 32


def _cgr_decode_list_inner(
    v: int, data: np.ndarray, offset: int, expected_degree: int | None
) -> np.ndarray:
    pos = offset
    produced = 0
    budget = expected_degree if expected_degree is not None else _MAX_UNCHECKED_INTERVAL
    n_intervals, pos = _read_varint(data, pos)
    if n_intervals * MIN_INTERVAL > budget:
        raise CorruptStreamError(
            f"{n_intervals} intervals need at least "
            f"{n_intervals * MIN_INTERVAL} values, budget is {budget}",
            fmt="cgr",
        )
    interval_values: list[np.ndarray] = []
    prev = v
    for i in range(n_intervals):
        raw, pos = _read_varint(data, pos)
        left = prev + (_unzigzag(raw) if i == 0 else raw)
        if left < 0:
            raise CorruptStreamError(
                f"interval {i} starts at negative id {left}", fmt="cgr"
            )
        length_m, pos = _read_varint(data, pos)
        length = length_m + MIN_INTERVAL
        if produced + length > budget:
            raise CorruptStreamError(
                f"interval {i} of length {length} overruns the "
                f"{budget}-value budget",
                fmt="cgr",
            )
        interval_values.append(np.arange(left, left + length, dtype=np.int64))
        produced += length
        prev = left + length
    n_residuals, pos = _read_varint(data, pos)
    if produced + n_residuals > budget:
        raise CorruptStreamError(
            f"{n_residuals} residuals after {produced} interval values "
            f"overrun the {budget}-value budget",
            fmt="cgr",
        )
    residuals = np.empty(n_residuals, dtype=np.int64)
    prev = v
    for i in range(n_residuals):
        raw, pos = _read_varint(data, pos)
        value = prev + (_unzigzag(raw) if i == 0 else raw + 1)
        if value < 0:
            raise CorruptStreamError(
                f"residual {i} decodes to negative id {value}", fmt="cgr"
            )
        residuals[i] = value
        prev = value
    produced += n_residuals
    if expected_degree is not None and produced != expected_degree:
        raise CorruptStreamError(
            f"chain produced {produced} neighbours, degree is "
            f"{expected_degree}",
            fmt="cgr",
        )
    if interval_values:
        merged = np.concatenate(interval_values + [residuals])
        merged.sort()
        return merged
    return residuals


@dataclass(frozen=True)
class CGRGraph:
    """Whole-graph CGR container: per-vertex byte offsets + payload.

    ``steps`` counts the varints in each list's encoding — the length
    of the *dependent decode chain* a warp must parse sequentially.
    The traversal cost model uses it for the serialization charge and
    the per-launch critical-path floor (a hub list cannot be split
    across thread blocks in CGR).
    """

    graph: Graph
    offsets: np.ndarray  # int64, |V|+1, exclusive byte offsets into data
    data: np.ndarray  # uint8 payload
    steps: np.ndarray  # int64, |V|, varints per list (decode chain length)
    #: CRC32 over ``data`` / the metadata arrays, stamped by
    #: :func:`cgr_encode`; ``None`` on hand-built containers.
    payload_crc: int | None = None
    meta_crc: int | None = None

    @property
    def num_nodes(self) -> int:
        """|V|."""
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        """|E|."""
        return self.graph.num_edges

    @property
    def nbytes(self) -> int:
        """Storage: 4 B per offset entry (32-bit, like the paper) + payload."""
        return 4 * int(self.offsets.shape[0]) + int(self.data.shape[0])

    def neighbours(self, v: int) -> np.ndarray:
        """Decode vertex ``v``'s list."""
        if not 0 <= v < self.num_nodes:
            raise IndexError(f"vertex {v} out of range")
        lo = int(self.offsets[v])
        if not 0 <= lo <= int(self.data.shape[0]):
            raise CorruptMetadataError(
                f"list offset {lo} outside the {int(self.data.shape[0])}"
                "-byte payload",
                fmt="cgr",
                vertex=v,
            )
        deg = int(self.graph.vlist[v + 1] - self.graph.vlist[v])
        if deg < 0:
            raise CorruptMetadataError(
                "negative degree (vlist not monotone)", fmt="cgr", vertex=v
            )
        return cgr_decode_list(v, self.data, lo, expected_degree=deg)

    def verify_integrity(self) -> None:
        """Check the encode-time CRCs; no-op when they were never stamped."""
        if self.meta_crc is not None and arrays_crc32(
            self.offsets, self.steps
        ) != self.meta_crc:
            raise CorruptMetadataError("metadata checksum mismatch", fmt="cgr")
        if self.payload_crc is not None and arrays_crc32(self.data) != self.payload_crc:
            raise CorruptStreamError("payload checksum mismatch", fmt="cgr")

    def list_nbytes(self, v: int | np.ndarray) -> np.ndarray:
        """Compressed byte length of one or many lists."""
        v = np.asarray(v)
        return (self.offsets[v + 1] - self.offsets[v]).astype(np.int64)


def cgr_list_steps(v: int, nbrs: np.ndarray) -> int:
    """Varints in the encoding of one list (decode chain length)."""
    nbrs = np.asarray(nbrs, dtype=np.int64)
    _, _, steps = _encode_lists(np.array([0, nbrs.shape[0]]), nbrs, v)
    return int(steps[0])


def cgr_encode(graph: Graph) -> CGRGraph:
    """Encode every neighbour list in one batched pass; offline step."""
    offsets, data, steps = _encode_lists(graph.vlist, graph.elist)
    for arr in (offsets, steps, data):
        if arr.flags.writeable:
            arr.flags.writeable = False
    return CGRGraph(
        graph=graph, offsets=offsets, data=data, steps=steps,
        payload_crc=arrays_crc32(data),
        meta_crc=arrays_crc32(offsets, steps),
    )
