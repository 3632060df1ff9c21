"""The Elias-Fano Graph (EFG) format (Sec. V) and its batched decoder.

Representation (Fig. 3c): four arrays, the first three indexed by
vertex id —

* ``vlist`` — CSR-style exclusive degree prefix sum; gives the degree
  ``deg_v = vlist[v+1] - vlist[v]`` (the element count of the
  compressed list) but, unlike CSR, does **not** index the data.
* ``num_lower_bits`` — per-list EF parameter ``l``.
* ``offsets`` — exclusive prefix sum of per-list compressed byte sizes.
* ``data`` — payload; per list the sections *(forward pointers | lower
  bits | upper bits)* in that order, each byte aligned.

The encoder is fully vectorized across all lists at once: lower bits
are scattered one byte of the widest field per pass, upper-bit stop
positions (``(x >> l) + i``) and forward-pointer values (``x >> l`` at
anchor elements) come straight from arithmetic — no bit scanning.  It
is the package's one Elias-Fano encoder: :func:`repro.ef.encoding.
ef_encode` (and through it the EF wire codec and PEF partitions) runs
it on a single list, and ``EFGraph.edge_at`` / ``ef_decode_at`` share
one random access.

``decode_lists`` produces the output of the multi-list thread-block
kernel (Fig. 7) for a whole batch at once, by host-friendly means: one
bit-map select over the gathered upper bytes and one field read at
per-value widths.  The kernel's own decomposition (popcount, segmented
scans, ``binsearch_maxle``, ``select1_byte`` LUT) is
:mod:`repro.core.kernels`; tests assert both produce identical output.

Both directions keep their host scratch proportional to their output,
a few narrow arrays per edge: the encoder's per-element list ids are
int32 and its widths uint8, and the decoder updates its per-value
arrays in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import CorruptMetadataError, CorruptStreamError
from repro.ef.bitstream import extract_fields
from repro.ef.forward import DEFAULT_QUANTUM
from repro.ef.select import select1_all, select1_scalar
from repro.formats.graph import Graph
from repro.formats.integrity import arrays_crc32, check_crcs
from repro.primitives.scan import exclusive_scan

__all__ = [
    "EFGraph",
    "efg_encode",
    "decode_lists",
    "csr_gather_indices",
    "range_indices",
    "validate_efg",
    "check_decode_batch",
]


def csr_gather_indices(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand per-segment (start, length) into flat gather indices.

    Returns ``(indices, segment_ids)`` where ``indices`` enumerates
    ``starts[s] + 0..lengths[s]-1`` for every segment ``s`` in order.
    This is the ubiquitous CSR-expansion idiom (repeat + arange), the
    vectorized form of "each thread finds its item via scan+search".
    Its peak scratch is its two outputs: ``starts[s] - ex[s]`` (``ex``
    the exclusive sum of ``lengths``) repeated plus the flat position.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    seg_ids = np.repeat(np.arange(lengths.shape[0], dtype=np.int64), lengths)
    return range_indices(starts, lengths), seg_ids


def range_indices(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ``indices`` half of :func:`csr_gather_indices`:
    ``starts[s] + 0..lengths[s]-1`` for every segment ``s``, in order."""
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    ex, total = exclusive_scan(lengths)
    indices = np.repeat(starts - ex, lengths)
    indices += np.arange(total, dtype=np.int64)
    return indices


@dataclass
class EFGraph:
    """Whole-graph EFG container (Sec. V).

    Section byte layout per list ``v`` (all byte aligned):

    ``data[offsets[v] : offsets[v+1]] = fwd(4B each) | lower | upper``

    with ``num_fwd = deg_v // quantum``, ``lower_bytes =
    ceil(deg_v * l_v / 8)`` and the remainder being upper bytes.
    """

    vlist: np.ndarray
    num_lower_bits: np.ndarray
    offsets: np.ndarray
    data: np.ndarray
    quantum: int = DEFAULT_QUANTUM
    name: str = ""
    #: CRC32 over ``data`` / over the metadata arrays, stamped by
    #: :func:`efg_encode`; ``None`` on hand-built containers.
    payload_crc: int | None = None
    meta_crc: int | None = None
    _degree_cache: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    #: Fault surface: the payload field and the integer metadata fields
    #: a fault campaign may perturb (rebuilt with ``dataclasses.replace``).
    PAYLOAD_FIELD = "data"
    METADATA_FIELDS = ("vlist", "num_lower_bits", "offsets")

    @property
    def num_nodes(self) -> int:
        """|V|."""
        return int(self.vlist.shape[0] - 1)

    @property
    def num_edges(self) -> int:
        """|E|."""
        return int(self.vlist[-1])

    @property
    def degrees(self) -> np.ndarray:
        """Out-degree per vertex (constant time via vlist)."""
        if self._degree_cache is None:
            self._degree_cache = np.diff(self.vlist)
        return self._degree_cache

    @property
    def nbytes(self) -> int:
        """Storage accounting mirroring the paper's 32-bit CSR baseline.

        vlist and offsets as 4 B entries, ``num_lower_bits`` 1 B per
        vertex, plus the payload.  (Scaled-down payloads stay < 4 GiB,
        so 32-bit offsets are faithful.)
        """
        nv = self.num_nodes
        return 4 * (nv + 1) + nv + 4 * (nv + 1) + int(self.data.shape[0])

    # -- per-list section geometry ------------------------------------

    def fwd_nbytes(self, v: np.ndarray) -> np.ndarray:
        """Forward-pointer section size per list (4 B per pointer)."""
        return (self.degrees[v] // self.quantum) * 4

    def lower_nbytes(self, v: np.ndarray) -> np.ndarray:
        """Lower-bits section size per list."""
        deg = self.degrees[v]
        l = self.num_lower_bits[v].astype(np.int64)
        return (deg * l + 7) >> 3

    def upper_start_byte(self, v: np.ndarray) -> np.ndarray:
        """Absolute data offset of each list's upper-bits section."""
        v = np.asarray(v)
        return self.offsets[v] + self.fwd_nbytes(v) + self.lower_nbytes(v)

    def lower_start_byte(self, v: np.ndarray) -> np.ndarray:
        """Absolute data offset of each list's lower-bits section."""
        v = np.asarray(v)
        return self.offsets[v] + self.fwd_nbytes(v)

    def upper_nbytes(self, v: np.ndarray) -> np.ndarray:
        """Upper-bits section size per list."""
        v = np.asarray(v)
        return self.offsets[v + 1] - self.upper_start_byte(v)

    def forward_values(self, v: int) -> np.ndarray:
        """Decode the forward-pointer section of one list (uint32 LE)."""
        start = int(self.offsets[v])
        count = int(self.degrees[v]) // self.quantum
        raw = self.data[start : start + 4 * count]
        return raw.view("<u4").astype(np.int64)

    # -- decoding -------------------------------------------------------

    def neighbours(self, v: int) -> np.ndarray:
        """Decode one full neighbour list."""
        return decode_lists(self, np.array([v], dtype=np.int64))

    def edge_at(self, v: int, i: int) -> int:
        """Random access: the i-th neighbour of ``v`` without a full
        decode (forward pointer + bounded select, Sec. IV-A)."""
        deg = int(self.degrees[v])
        if not 0 <= i < deg:
            raise IndexError(f"vertex {v} has no edge {i}")
        check_decode_batch(self, np.array([v], dtype=np.int64))
        lower = int(self.lower_start_byte(v))
        upper = int(self.upper_start_byte(v))
        return _value_at(
            self.forward_values(v),
            self.data[lower:upper],
            self.data[upper : int(self.offsets[v + 1])],
            int(self.num_lower_bits[v]),
            self.quantum,
            i,
            fmt="efg",
            vertex=v,
        )

    def has_edge(self, u: int, v: int) -> bool:
        """Adjacency query in O(log deg) random accesses — constant-ish
        time membership on the *compressed* graph."""
        deg = int(self.degrees[u])
        if deg == 0:
            return False
        lo, hi = 0, deg - 1
        if self.edge_at(u, lo) == v or self.edge_at(u, hi) == v:
            return True
        while hi - lo > 1:
            mid = (lo + hi) // 2
            value = self.edge_at(u, mid)
            if value == v:
                return True
            if value < v:
                lo = mid
            else:
                hi = mid
        return False

    def decode_all(self) -> np.ndarray:
        """Every list, flat int64 in CSR order (one batched decode)."""
        return decode_lists(self, np.arange(self.num_nodes, dtype=np.int64))

    def to_graph(self) -> Graph:
        """Decode the whole graph back to sorted-adjacency form."""
        return Graph(
            vlist=self.vlist.copy(),
            elist=self.decode_all(),
            directed=True,
            name=self.name,
        )

    # -- integrity ------------------------------------------------------

    def verify_integrity(self) -> None:
        """Check the encode-time CRCs; no-op when they were never stamped.

        Raises
        ------
        CorruptStreamError
            The payload bytes changed since encode.
        CorruptMetadataError
            A metadata array changed since encode.
        """
        check_crcs(
            self, "efg",
            self.vlist, self.num_lower_bits, self.offsets, self.quantum,
        )

    def validate(self) -> None:
        """Structural validation of the whole container (cheap, vectorized).

        See :func:`validate_efg`.
        """
        validate_efg(self)


#: ``_POW2[k] = 2**k``: ``bit_length(x)`` is the number of entries <= x.
_POW2 = np.int64(1) << np.arange(63, dtype=np.int64)


def _encode_lists(
    vlist: np.ndarray, elist: np.ndarray, u: np.ndarray, quantum: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elias-Fano-encode every list of a CSR ``(vlist, elist)`` at once.

    All three are int64 arrays.  List ``i`` is
    ``elist[vlist[i]:vlist[i+1]]`` (``vlist[0] == 0``), non-decreasing
    and non-negative, with universe ``u[i]`` at or above its last value
    (0 for an empty list).  Returns ``(num_lower_bits, offsets, data)``:
    per-list ``l`` (uint8), byte offsets into ``data``, and the payload,
    each list laid out as *forward pointers | lower bits | upper bits*,
    byte aligned.  ``efg_encode`` passes every list's last value as
    ``u``; ``ef_encode`` passes one list and the caller's bound.

    Lower bits are scattered one byte of the widest field per pass;
    upper-bit stop positions (``(x >> l) + i``) and forward-pointer
    values (``x >> l`` at elements ``j*quantum - 1``) come straight from
    arithmetic, with no bit scanning.
    """
    if quantum <= 0:
        raise ValueError(f"quantum must be positive, got {quantum}")
    degrees = np.diff(vlist)

    # l = max(0, floor(log2(u / n))) = bit_length(u // n) - 1, clamped at
    # 0: exactly ef_num_lower_bits, one list per lane.
    l = np.searchsorted(_POW2, u // np.maximum(degrees, 1), side="right")
    l = np.maximum(l - 1, 0)

    # --- section sizes and offsets (an empty list, u = 0, takes none) ---
    num_fwd = degrees // quantum
    lower_bytes = (degrees * l + 7) >> 3
    offsets = np.zeros(degrees.shape[0] + 1, dtype=np.int64)
    np.cumsum(
        4 * num_fwd + lower_bytes + ((degrees + (u >> l) + 7) >> 3),
        out=offsets[1:],
    )
    lower_bit0 = (offsets[:-1] + 4 * num_fwd) * 8
    upper_bit0 = lower_bit0 + 8 * lower_bytes

    data = np.zeros(int(offsets[-1]), dtype=np.uint8)

    # Per-element scratch is narrow (int32 list ids, uint8 widths) and
    # each section's arrays go as soon as the section is written.  The
    # local index of element g in its list is g - vlist[list], so every
    # per-element position is arange(|E|) plus one per-list constant.
    num_lists = degrees.shape[0]
    seg_ids = np.repeat(
        np.arange(num_lists, dtype=np.int32 if num_lists < 2**31 else np.int64),
        degrees,
    )
    l_per_edge = l.astype(np.uint8)[seg_ids]

    # --- upper bits: stop bit for local element i at (high_i + i) ---
    stop_pos = np.arange(elist.shape[0], dtype=np.int64)
    stop_pos += (upper_bit0 - vlist[:-1])[seg_ids]
    stop_pos += elist >> l_per_edge
    stop_bit = stop_pos.astype(np.uint8)
    stop_bit &= 7
    stop_pos >>= 3
    np.bitwise_or.at(data, stop_pos, np.left_shift(np.uint8(1), stop_bit))
    del stop_pos, stop_bit

    # --- lower bits: l[v] bits per element, packed LSB-first ---
    # One pass per 8-bit piece of the widest field: the piece at bit p
    # of a field straddles at most two bytes, the second no further out
    # than the list's first upper byte.
    elem_bit0 = np.arange(elist.shape[0], dtype=np.int64)
    elem_bit0 *= l_per_edge
    elem_bit0 += (lower_bit0 - vlist[:-1] * l)[seg_ids]
    del seg_ids
    lows = np.left_shift(np.int64(1), l_per_edge)
    lows -= 1
    lows &= elist
    for p in range(0, int(l.max(initial=0)), 8):
        mask = l_per_edge > p
        byte = elem_bit0[mask]
        byte += p
        off = byte.astype(np.uint8)
        off &= 7
        byte >>= 3
        piece = lows[mask]
        piece >>= p
        del mask
        # The piece's 8 bits land at bits off..off+7 of a 16-bit window
        # over bytes (byte, byte + 1).
        pair = (piece & 0xFF).astype(np.uint16)
        del piece
        pair <<= off
        np.bitwise_or.at(data, byte, pair.astype(np.uint8))
        pair >>= 8
        byte += 1
        np.bitwise_or.at(data, byte, pair.astype(np.uint8))
        del byte, off, pair
    del elem_bit0, lows, l_per_edge

    # --- forward pointers: value of (x >> l) at elements j*quantum - 1 ---
    if int(num_fwd.sum()):
        # anchor_pos is the pointer ordinal j-1 within its list.
        anchor_pos, fwd_seg = csr_gather_indices(
            np.zeros(degrees.shape[0], dtype=np.int64), num_fwd
        )
        flat_elem = vlist[fwd_seg] + (anchor_pos + 1) * quantum - 1
        values = (elist[flat_elem] >> l[fwd_seg]).astype("<u4")
        # Scatter 4-byte LE values into each list's fwd section.
        byte0 = offsets[fwd_seg] + anchor_pos * 4
        raw = values.view(np.uint8).reshape(-1, 4)
        for k in range(4):
            data[byte0 + k] = raw[:, k]
    return l.astype(np.uint8), offsets, data


def _value_at(
    forward: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    l: int,
    quantum: int,
    i: int,
    *,
    fmt: str,
    vertex: int | None = None,
) -> int:
    """Element ``i`` of one EF list from its three sections (Sec. IV-A).

    ``x_i = ((select1(i) - i) << l) | lower[i]``.  Forward pointer ``j``
    stores ``x_{jk-1} >> l``, so ``select1(jk-1)`` is that value plus
    ``jk-1`` and :func:`select1_scalar` only scans the stop bits after
    the closest anchor at or before ``i``.  ``forward`` may hold fewer
    than ``n // quantum`` pointers (none at all scans from bit 0).

    Raises
    ------
    CorruptStreamError
        ``upper`` holds too few stop bits past the anchor.
    """
    j = min((i + 1) // quantum, forward.shape[0])
    try:
        if j == 0:
            select_pos = select1_scalar(upper, i)
        else:
            anchor = j * quantum - 1
            select_pos = int(forward[j - 1]) + anchor
            if anchor < i:
                select_pos = select1_scalar(
                    upper, i - anchor - 1, start_bit=select_pos + 1
                )
    except IndexError as exc:
        # Fewer stop bits than the length promises (or a forward
        # pointer steering the scan past the section).
        raise CorruptStreamError(str(exc), fmt=fmt, vertex=vertex) from exc
    value = select_pos - i
    if l:
        value = (value << l) | int(extract_fields(lower, np.array([i * l]), l)[0])
    return value


def efg_encode(
    graph: Graph, quantum: int = DEFAULT_QUANTUM, name: str | None = None
) -> EFGraph:
    """Vectorized whole-graph EFG encoder.

    The only precondition is sorted neighbour lists (Sec. V); the
    :class:`~repro.formats.graph.Graph` container guarantees strictly
    increasing rows.  Each list's universe is its own last element.
    """
    vlist = graph.vlist.copy()
    last = np.zeros(graph.num_nodes, dtype=np.int64)
    nonempty = graph.degrees > 0
    last[nonempty] = graph.elist[vlist[1:][nonempty] - 1]
    num_lower_bits, offsets, data = _encode_lists(
        vlist, graph.elist, last, quantum
    )
    # Freeze everything the decoders read: a buggy kernel scribbling on
    # shared payload bytes corrupts every later traversal, so the
    # container is immutable after encode (like the bitops LUTs and the
    # frombuffer-backed CGR/Ligra+ payloads).
    for arr in (vlist, num_lower_bits, offsets, data):
        arr.flags.writeable = False
    return EFGraph(
        vlist=vlist,
        num_lower_bits=num_lower_bits,
        offsets=offsets,
        data=data,
        quantum=quantum,
        name=name if name is not None else graph.name,
        payload_crc=arrays_crc32(data),
        meta_crc=arrays_crc32(vlist, num_lower_bits, offsets, quantum),
    )


def validate_efg(efg: EFGraph) -> None:
    """Structural validation of an :class:`EFGraph` (vectorized, O(|V|)).

    Checks the invariants every clean encode satisfies: monotone
    ``vlist`` and ``offsets`` anchored at 0, ``offsets[-1]`` equal to
    the payload length, ``num_lower_bits <= 64``, and per list enough
    payload bytes for the *(forward | lower | upper)* sections its
    degree and ``l`` imply (the upper section needs at least one stop
    bit per element).

    Raises
    ------
    CorruptMetadataError
        Naming the first offending vertex where one is identifiable.
    """
    nv = int(efg.vlist.shape[0]) - 1
    if nv < 0:
        raise CorruptMetadataError("vlist is empty", fmt="efg")
    if efg.num_lower_bits.shape[0] != nv:
        raise CorruptMetadataError(
            f"num_lower_bits has {efg.num_lower_bits.shape[0]} entries "
            f"for {nv} vertices",
            fmt="efg",
        )
    if efg.offsets.shape[0] != nv + 1:
        raise CorruptMetadataError(
            f"offsets has {efg.offsets.shape[0]} entries for {nv} vertices",
            fmt="efg",
        )
    if int(efg.vlist[0]) != 0:
        raise CorruptMetadataError(
            f"vlist[0] is {int(efg.vlist[0])}, expected 0", fmt="efg"
        )
    deg = np.diff(efg.vlist)
    if np.any(deg < 0):
        v = int(np.argmax(deg < 0))
        raise CorruptMetadataError("vlist not monotone", fmt="efg", vertex=v)
    if int(efg.offsets[0]) != 0:
        raise CorruptMetadataError(
            f"offsets[0] is {int(efg.offsets[0])}, expected 0", fmt="efg"
        )
    list_bytes = np.diff(efg.offsets)
    if np.any(list_bytes < 0):
        v = int(np.argmax(list_bytes < 0))
        raise CorruptMetadataError("offsets not monotone", fmt="efg", vertex=v)
    if int(efg.offsets[-1]) != int(efg.data.shape[0]):
        raise CorruptMetadataError(
            f"offsets[-1] is {int(efg.offsets[-1])} but payload holds "
            f"{int(efg.data.shape[0])} bytes",
            fmt="efg",
        )
    check_decode_batch(efg, np.arange(nv, dtype=np.int64))


def check_decode_batch(efg: EFGraph, vertices: np.ndarray) -> None:
    """Cheap per-batch metadata guard run before decoding ``vertices``.

    Verifies, for exactly the requested lists, that degrees are
    non-negative, ``num_lower_bits`` is a representable EF parameter,
    and the implied section geometry fits inside both the per-list
    payload slice and the payload array — the precondition for the
    gather-based decoders to stay in bounds.  Rejecting here is what
    turns a corrupt ``num_lower_bits`` into a typed
    :class:`CorruptMetadataError` instead of numpy's internal
    ``ValueError: repeats may not contain negative values``.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.size == 0:
        return
    if int(vertices.min()) < 0 or int(vertices.max()) >= efg.num_nodes:
        v = int(vertices[(vertices < 0) | (vertices >= efg.num_nodes)][0])
        raise IndexError(f"vertex {v} out of range for |V|={efg.num_nodes}")
    deg = efg.degrees[vertices]
    if np.any(deg < 0):
        v = int(vertices[np.argmax(deg < 0)])
        raise CorruptMetadataError(
            "negative degree (vlist not monotone)", fmt="efg", vertex=v
        )
    l = efg.num_lower_bits[vertices].astype(np.int64)
    if np.any(l > 64):
        i = int(np.argmax(l > 64))
        raise CorruptMetadataError(
            f"num_lower_bits {int(l[i])} exceeds 64",
            fmt="efg",
            vertex=int(vertices[i]),
        )
    list_bytes = (efg.offsets[vertices + 1] - efg.offsets[vertices]).astype(
        np.int64
    )
    if np.any(list_bytes < 0):
        v = int(vertices[np.argmax(list_bytes < 0)])
        raise CorruptMetadataError(
            "offsets not monotone", fmt="efg", vertex=v
        )
    overhead = efg.fwd_nbytes(vertices) + efg.lower_nbytes(vertices)
    min_upper = (deg + 7) >> 3  # >= 1 stop bit per element
    bad = overhead + min_upper > list_bytes
    if np.any(bad):
        i = int(np.argmax(bad))
        raise CorruptMetadataError(
            f"sections need >= {int(overhead[i] + min_upper[i])} bytes but "
            f"the payload slice holds {int(list_bytes[i])} "
            f"(corrupt num_lower_bits or offsets)",
            fmt="efg",
            vertex=int(vertices[i]),
        )
    up_start = efg.upper_start_byte(vertices)
    up_end = up_start + efg.upper_nbytes(vertices)
    out_of_payload = (up_start < 0) | (up_end > int(efg.data.shape[0]))
    if np.any(out_of_payload):
        i = int(np.argmax(out_of_payload))
        raise CorruptMetadataError(
            "upper-bits window falls outside the payload",
            fmt="efg",
            vertex=int(vertices[i]),
        )


def decode_lists(efg: EFGraph, vertices: np.ndarray) -> np.ndarray:
    """Decode the full neighbour lists of a batch of vertices.

    The whole-batch form of the multi-list kernel (Fig. 7), with the
    same output: the upper bytes of every requested list are gathered
    into one window and every stop bit is selected from one bit map
    (:func:`~repro.ef.select.select1_all`); each bit's list is a
    ``searchsorted`` on the lists' first window bits, and one
    :func:`~repro.ef.bitstream.extract_fields` call reads every lower
    half at its list's width.  The popcount/scan/binsearch/LUT
    decomposition a thread block runs is :mod:`repro.core.kernels`.
    Scratch stays within a few int64 arrays per value.

    Returns
    -------
    values:
        The decoded neighbour ids of every list, concatenated in
        ``vertices`` order (int64).

    Raises
    ------
    CorruptStreamError
        The window holds a different number of stop bits than the
        lists have values, or a stop bit sits before its element's rank.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    check_decode_batch(efg, vertices)
    degrees = efg.degrees[vertices]
    total_vals = int(degrees.sum())
    if total_vals == 0:
        return np.empty(0, dtype=np.int64)

    # Gather every upper byte of every list (threads <- bytes, Fig. 7
    # step 1) and select every stop bit of the window.
    up_len = efg.upper_nbytes(vertices)
    byte_idx, _ = csr_gather_indices(efg.upper_start_byte(vertices), up_len)
    values = select1_all(efg.data[byte_idx])
    del byte_idx
    if values.shape[0] != total_vals:
        raise CorruptStreamError(
            f"{values.shape[0]} stop bits for {total_vals} values", fmt="efg"
        )

    # upper half = select1(i) - i within the list (steps 6-9).  The
    # bits preceding a stop bit in its own list come from the list the
    # *bit* lies in, found by a searchsorted on the window's list start
    # bits (the bits are sorted, so that is B probes); the rank i from
    # the list the *value* belongs to.  On a clean stream the two agree.
    list_bit0, _ = exclusive_scan(up_len)
    list_bit0 *= 8
    bit_counts = np.diff(np.searchsorted(values, list_bit0), append=total_vals)
    values -= np.repeat(list_bit0, bit_counts)
    ex_deg, _ = exclusive_scan(degrees)
    values += np.repeat(ex_deg, degrees)
    values -= np.arange(total_vals, dtype=np.int64)
    if int(values.min()) < 0:
        # Total stop bits matched but migrated across a list boundary.
        raise CorruptStreamError(
            "select position precedes element rank (stop bits misplaced)",
            fmt="efg",
        )

    # Lower halves: element i of list v sits at bit lower_bit0[v] + i*l.
    l = efg.num_lower_bits[vertices].astype(np.uint8)
    l_per_val = np.repeat(l, degrees)
    low_pos = np.arange(total_vals, dtype=np.int64)
    low_pos *= l_per_val
    low_pos += np.repeat(
        efg.lower_start_byte(vertices) * 8 - ex_deg * l, degrees
    )
    values <<= l_per_val
    values |= extract_fields(efg.data, low_pos, l_per_val).view(np.int64)
    return values
