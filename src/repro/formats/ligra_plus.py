"""Ligra+ baseline — run-length-encoded byte codes (Shun et al., DCC'15).

The paper's CPU comparator (top-down mode).  Each sorted neighbour list
is gap-transformed — the first gap relative to the source vertex id and
sign-coded, subsequent gaps unsigned — and the gaps are written with
Ligra+'s *run-length-encoded byte code*: groups of up to 64 consecutive
gaps that need the same number of bytes share a single header byte
(2 bits for the byte-width, 6 bits for the run length), followed by the
little-endian payload bytes.

Like CGR, the decode is a per-list sequential chain; Ligra+ gets CPU
parallelism across lists (one list per thread), which our CPU cost
model reflects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import CorruptStreamError
from repro.formats.graph import Graph
from repro.formats.integrity import ListContainer, arrays_crc32, pack_lists

__all__ = ["LigraPlusGraph", "ligra_encode", "ligra_encode_list", "ligra_decode_list"]

#: Maximum elements per run-length group (6-bit run length field).
MAX_RUN = 64


def _bytes_needed(value: int) -> int:
    """Bytes needed to store a non-negative int (1..4 supported)."""
    if value < 0:
        raise ValueError(f"negative value: {value}")
    n = max(1, (value.bit_length() + 7) // 8)
    if n > 4:
        raise ValueError(f"gap {value} too large for 4-byte code")
    return n


def _first_gap_encode(v: int, first: int) -> int:
    """Sign-code the first neighbour relative to the source id."""
    diff = first - v
    return (abs(diff) << 1) | (1 if diff < 0 else 0)


def _first_gap_decode(v: int, coded: int) -> int:
    """Inverse of :func:`_first_gap_encode`."""
    magnitude = coded >> 1
    return v - magnitude if coded & 1 else v + magnitude


def ligra_encode_list(v: int, nbrs: np.ndarray) -> bytes:
    """Encode one neighbour list with RLE byte codes."""
    nbrs = np.asarray(nbrs, dtype=np.int64)
    if nbrs.shape[0] == 0:
        return b""
    gaps = np.empty(nbrs.shape[0], dtype=np.int64)
    gaps[0] = _first_gap_encode(v, int(nbrs[0]))
    gaps[1:] = np.diff(nbrs) - 1  # strictly increasing lists -> gaps >= 1
    widths = np.array([_bytes_needed(int(g)) for g in gaps], dtype=np.int64)

    out = bytearray()
    i = 0
    n = gaps.shape[0]
    while i < n:
        width = widths[i]
        j = i
        while j < n and widths[j] == width and j - i < MAX_RUN:
            j += 1
        run = j - i
        out.append(((width - 1) << 6) | (run - 1))
        for g in gaps[i:j]:
            out.extend(int(g).to_bytes(int(width), "little"))
        i = j
    return bytes(out)


def ligra_decode_list(v: int, degree: int, data: np.ndarray, offset: int = 0) -> np.ndarray:
    """Sequentially decode one list of known degree.

    Every header/payload read is bounds-checked against the payload and
    against ``degree``; a corrupt run header raises
    :class:`~repro.core.errors.CorruptStreamError` instead of reading
    past the section or tripping a numpy reshape error.
    """
    if degree == 0:
        return np.empty(0, dtype=np.int64)
    data = np.asarray(data, dtype=np.uint8)
    end = int(data.shape[0])
    gaps = np.empty(degree, dtype=np.int64)
    produced = 0
    pos = offset
    while produced < degree:
        if pos >= end:
            raise CorruptStreamError(
                f"run header expected at byte {pos}, payload ends at {end}",
                fmt="ligra",
                vertex=v,
            )
        header = int(data[pos])
        pos += 1
        width = (header >> 6) + 1
        run = (header & 0x3F) + 1
        if produced + run > degree:
            raise CorruptStreamError(
                f"run of {run} gaps overruns degree {degree} "
                f"({produced} already decoded)",
                fmt="ligra",
                vertex=v,
            )
        if pos + run * width > end:
            raise CorruptStreamError(
                f"run payload of {run * width} bytes at {pos} overruns the "
                f"{end}-byte section",
                fmt="ligra",
                vertex=v,
            )
        block = data[pos : pos + run * width].reshape(run, width).astype(np.int64)
        weights = np.int64(1) << (8 * np.arange(width, dtype=np.int64))
        gaps[produced : produced + run] = block @ weights
        pos += run * width
        produced += run
    out = np.empty(degree, dtype=np.int64)
    out[0] = _first_gap_decode(v, int(gaps[0]))
    if out[0] < 0:
        raise CorruptStreamError(
            f"first neighbour decodes to negative id {int(out[0])}",
            fmt="ligra",
            vertex=v,
        )
    if degree > 1:
        np.cumsum(gaps[1:] + 1, out=out[1:])
        out[1:] += out[0]
    return out


@dataclass(frozen=True)
class LigraPlusGraph(ListContainer):
    """Whole-graph Ligra+ container.

    Ligra+ keeps the uncompressed vertex array (offsets + degrees); we
    account 4 B offsets + 4 B degrees per vertex plus the payload, which
    matches Ligra+'s ``vertex`` struct in compressed mode.
    """

    graph: Graph

    FMT = "ligra"

    @property
    def vlist(self) -> np.ndarray:
        """The embedded graph's degree prefix sum."""
        return self.graph.vlist

    @property
    def nbytes(self) -> int:
        """Storage: per-vertex offset (4 B) + degree (4 B) + payload."""
        return 8 * self.num_nodes + 4 + int(self.data.shape[0])

    def decode_list(self, v: int) -> np.ndarray:
        """Decode list ``v`` of its known degree."""
        lo = self.list_start(v)
        return ligra_decode_list(v, int(self.degrees[v]), self.data, lo)


def ligra_encode(graph: Graph) -> LigraPlusGraph:
    """Encode every neighbour list; offline step."""
    offsets, data = pack_lists(
        ligra_encode_list(v, graph.neighbours(v)) for v in range(graph.num_nodes)
    )
    return LigraPlusGraph(
        graph=graph, offsets=offsets, data=data,
        payload_crc=arrays_crc32(data),
        meta_crc=arrays_crc32(offsets),
    )
