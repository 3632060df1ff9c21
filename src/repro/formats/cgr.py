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

from repro.core.errors import CorruptStreamError
from repro.formats.graph import Graph
from repro.formats.integrity import ListContainer, arrays_crc32
from repro.primitives.bitops import pack_varints

__all__ = ["CGRGraph", "cgr_encode", "cgr_decode_list"]

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
    vlist: np.ndarray, elist: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Encode every list of a CSR ``(vlist, elist)`` in a few array passes.

    List ``i`` belongs to vertex ``i``.  Each list's
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

    # Runs of consecutive ids; a list start always starts a run.
    run_start = np.ones(num_edges, dtype=bool)
    np.not_equal(elist[1:], elist[:-1] + 1, out=run_start[1:])
    run_start[vlist[:-1][deg > 0]] = True
    run_first = np.flatnonzero(run_start)
    del run_start
    run_len = np.diff(run_first, append=num_edges)
    is_interval = run_len >= MIN_INTERVAL
    iv_first = run_first[is_interval]
    iv_len = run_len[is_interval]
    is_res = np.repeat(~is_interval, run_len)
    del run_first, run_len, is_interval
    # An edge's list is the last one starting at or before it.
    iv_owner = np.searchsorted(vlist, iv_first, side="right") - 1
    res_idx = np.flatnonzero(is_res)
    del is_res
    res_owner = np.searchsorted(vlist, res_idx, side="right") - 1

    n_iv = np.bincount(iv_owner, minlength=num_lists)
    n_res = np.bincount(res_owner, minlength=num_lists)
    steps = 2 + 2 * n_iv + n_res
    tok_bounds = np.zeros(num_lists + 1, dtype=np.int64)
    np.cumsum(steps, out=tok_bounds[1:])
    tok_first = tok_bounds[:-1]

    tokens = np.empty(int(tok_bounds[-1]), dtype=np.int64)
    tokens[tok_first] = n_iv
    tokens[tok_first + 1 + 2 * n_iv] = n_res

    # Intervals: interval j is number j - (intervals before its list) of
    # its list, and a list's first interval is where the owner changes.
    iv_left = elist[iv_first]
    del iv_first
    iv_pos = tok_first - 2 * (np.cumsum(n_iv) - n_iv) + 1
    iv_pos = iv_pos[iv_owner]
    iv_pos += 2 * np.arange(iv_owner.shape[0])
    head = _owner_changes(iv_owner)
    iv_gap = np.empty_like(iv_left)
    np.subtract(iv_left[1:], iv_left[:-1], out=iv_gap[1:])
    iv_gap[1:] -= iv_len[:-1]
    iv_gap[head] = _zigzag(iv_left[head] - iv_owner[head])
    tokens[iv_pos] = iv_gap
    iv_pos += 1
    iv_len -= MIN_INTERVAL
    tokens[iv_pos] = iv_len
    del iv_left, iv_len, iv_owner, iv_pos, iv_gap, head

    # Residuals: residual j sits at its list's base plus j.
    res_val = elist[res_idx]
    del res_idx
    res_pos = tok_first + 2 + 2 * n_iv - (np.cumsum(n_res) - n_res)
    res_pos = res_pos[res_owner]
    res_pos += np.arange(res_owner.shape[0])
    head = _owner_changes(res_owner)
    res_gap = np.empty_like(res_val)
    np.subtract(res_val[1:], res_val[:-1], out=res_gap[1:])
    res_gap[1:] -= 1
    res_gap[head] = _zigzag(res_val[head] - res_owner[head])
    tokens[res_pos] = res_gap
    del res_val, res_owner, res_pos, res_gap, head

    negative = np.flatnonzero(tokens < 0)
    if negative.shape[0]:
        raise ValueError(
            f"varint requires non-negative value, got {int(tokens[negative[0]])}"
        )
    data, byte_ends = pack_varints(tokens.view(np.uint64))
    del tokens
    # Every list has at least two tokens, so each list ends at a token.
    offsets = np.zeros(num_lists + 1, dtype=np.int64)
    offsets[1:] = byte_ends[tok_bounds[1:] - 1]
    return offsets, data, steps


def _owner_changes(owner: np.ndarray) -> np.ndarray:
    """Mask of the positions whose owner differs from the previous one's
    (the first of each list's intervals or residuals)."""
    head = np.ones(owner.shape[0], dtype=bool)
    np.not_equal(owner[1:], owner[:-1], out=head[1:])
    return head


#: Hard cap on a single decoded interval when the caller supplies no
#: degree — keeps a corrupt length varint from requesting a giant arange.
_MAX_UNCHECKED_INTERVAL = 1 << 32


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
    allocations or silently short lists.  Errors are tagged ``cgr``;
    :meth:`CGRGraph.neighbours` adds the vertex.
    """
    data = np.asarray(data, dtype=np.uint8)
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
class CGRGraph(ListContainer):
    """Whole-graph CGR container: per-vertex byte offsets + payload.

    ``steps`` counts the varints in each list's encoding — the length
    of the *dependent decode chain* a warp must parse sequentially.
    The traversal cost model uses it for the serialization charge and
    the per-launch critical-path floor (a hub list cannot be split
    across thread blocks in CGR).
    """

    graph: Graph
    steps: np.ndarray  # int64, |V|, varints per list (decode chain length)

    FMT = "cgr"
    METADATA_FIELDS = ("offsets", "steps")

    @property
    def vlist(self) -> np.ndarray:
        """The embedded graph's degree prefix sum."""
        return self.graph.vlist

    @property
    def nbytes(self) -> int:
        """Storage: 4 B per offset entry (32-bit, like the paper) + payload."""
        return 4 * int(self.offsets.shape[0]) + int(self.data.shape[0])

    def decode_list(self, v: int) -> np.ndarray:
        """Decode list ``v`` against its degree."""
        lo = self.list_start(v)
        return cgr_decode_list(
            v, self.data, lo, expected_degree=int(self.degrees[v])
        )


def cgr_encode(graph: Graph) -> CGRGraph:
    """Encode every neighbour list in one batched pass; offline step."""
    offsets, data, steps = _encode_lists(graph.vlist, graph.elist)
    for arr in (offsets, steps, data):
        arr.flags.writeable = False
    return CGRGraph(
        graph=graph, offsets=offsets, data=data, steps=steps,
        payload_crc=arrays_crc32(data),
        meta_crc=arrays_crc32(offsets, steps),
    )
