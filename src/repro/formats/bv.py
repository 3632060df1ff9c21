"""BV (Boldi-Vigna / WebGraph) comparator — compression ratio only.

Sec. VII calls BV "perhaps the most widely-used method for compressing
large web-graphs" and explains why it was *not* ported to GPUs: its
reference chains create sequential dependencies across lists — a list
may be encoded as an edit against an earlier vertex's list, so decoding
one list can require decoding a chain of others first.

We implement a faithful single-pass BV-style encoder to complete the
compression-ratio picture (it shows what EFG gives up for GPU
decodability), with the classic ingredients:

* **reference compression** — a list may copy a subset of one of the
  ``window`` preceding lists via a copy-block bitmask;
* **gap coding** of the residual extras (first gap signed relative to
  the source, zeta-like variable-length codes approximated by the same
  7-bit varints the CGR module uses);
* chains are bounded by ``max_ref_chain`` like the reference
  implementation (``R`` in WebGraph terms).

Decoding is provided to validate correctness, but it is intentionally
the dependent-chain algorithm — there is no GPU backend for BV, which
is exactly the paper's point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import CorruptMetadataError, CorruptStreamError
from repro.formats.cgr import _read_varint, _unzigzag, _write_varint, _zigzag
from repro.formats.graph import Graph
from repro.formats.integrity import arrays_crc32, decode_by_vertex

__all__ = ["BVGraph", "bv_encode", "bv_decode_list"]

#: How many preceding lists a list may reference.
DEFAULT_WINDOW = 7

#: Maximum length of a reference chain (WebGraph's R parameter).
DEFAULT_MAX_REF_CHAIN = 3


def _encode_copy_blocks(reference: np.ndarray, target: set[int]) -> tuple[list[int], np.ndarray]:
    """Split the reference list into alternating copy/skip blocks.

    Returns the WebGraph-style block-length list (first block counts
    copied entries, blocks alternate copied/skipped) and the copied
    values.
    """
    flags = np.array([int(x) in target for x in reference], dtype=bool)
    if not flags.any():
        return [], np.empty(0, dtype=np.int64)
    blocks: list[int] = []
    current = True  # first block is a copy block by convention
    run = 0
    for f in flags:
        if f == current:
            run += 1
        else:
            blocks.append(run)
            current = not current
            run = 1
    blocks.append(run)
    # Trailing skip block is implicit; drop it.
    if not current:
        blocks.pop()
    return blocks, reference[flags]


def _encode_list(
    v: int,
    nbrs: np.ndarray,
    window_lists: list[tuple[int, np.ndarray]],
    chain_depth: dict[int, int],
    max_ref_chain: int,
) -> tuple[bytes, int]:
    """Encode one list; returns (payload, reference offset or 0)."""
    target = set(int(x) for x in nbrs)
    best: tuple[int, list[int], np.ndarray, np.ndarray] | None = None
    for offset, (ref_v, ref_list) in enumerate(reversed(window_lists), start=1):
        if chain_depth.get(ref_v, 0) >= max_ref_chain:
            continue
        blocks, copied = _encode_copy_blocks(ref_list, target)
        if copied.shape[0] < max(2, len(blocks)):
            continue  # not worth a reference
        if best is None or copied.shape[0] > best[3].shape[0]:
            copied_set = set(int(x) for x in copied)
            extras = np.array(
                sorted(target - copied_set), dtype=np.int64
            )
            best = (offset, blocks, extras, copied)
    out = bytearray()
    if best is not None:
        offset, blocks, extras, _copied = best
        _write_varint(out, offset)
        _write_varint(out, len(blocks))
        for b in blocks:
            _write_varint(out, b)
        residuals = extras
    else:
        _write_varint(out, 0)
        residuals = nbrs
    _write_varint(out, residuals.shape[0])
    prev = v
    for i, value in enumerate(residuals):
        value = int(value)
        if i == 0:
            _write_varint(out, _zigzag(value - prev))
        else:
            _write_varint(out, value - prev - 1)
        prev = value
    return bytes(out), (best[0] if best is not None else 0)


@dataclass(frozen=True)
class BVGraph:
    """Whole-graph BV-style container (ratio comparator, CPU decode)."""

    graph: Graph
    offsets: np.ndarray
    data: np.ndarray
    window: int
    max_ref_chain: int
    #: CRC32 over ``data`` / the metadata, stamped by
    #: :func:`bv_encode`; ``None`` on hand-built containers.
    payload_crc: int | None = None
    meta_crc: int | None = None

    #: Fault surface (see :class:`~repro.core.efg.EFGraph`).
    PAYLOAD_FIELD = "data"
    METADATA_FIELDS = ("offsets",)

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
        """Storage: 4 B offsets per vertex + payload."""
        return 4 * int(self.offsets.shape[0]) + int(self.data.shape[0])

    def neighbours(self, v: int) -> np.ndarray:
        """Decode one list, following reference chains as needed."""
        return bv_decode_list(self, v)

    def decode_all(self) -> np.ndarray:
        """Every list, flat int64 in CSR order."""
        return decode_by_vertex(self)

    def verify_integrity(self) -> None:
        """Check the encode-time CRCs; no-op when they were never stamped."""
        if self.meta_crc is not None and arrays_crc32(
            self.offsets, self.window, self.max_ref_chain
        ) != self.meta_crc:
            raise CorruptMetadataError("metadata checksum mismatch", fmt="bv")
        if self.payload_crc is not None and arrays_crc32(self.data) != self.payload_crc:
            raise CorruptStreamError("payload checksum mismatch", fmt="bv")


def bv_decode_list(bv: BVGraph, v: int, _depth: int = 0) -> np.ndarray:
    """Dependent-chain decoder (the reason BV resists GPU porting).

    Hardened against corrupt streams: reference offsets must stay inside
    the window and point at earlier vertices, chains are bounded by the
    container's ``max_ref_chain`` (a corrupt offset cannot drive the
    recursion to a RecursionError), copy-block cursors are checked
    against the reference length, and varint reads are bounds-checked.
    """
    if not 0 <= v < bv.num_nodes:
        raise IndexError(f"vertex {v} out of range")
    data = bv.data
    pos = int(bv.offsets[v])
    if not 0 <= pos <= int(data.shape[0]):
        raise CorruptMetadataError(
            f"list offset {pos} outside the {int(data.shape[0])}-byte payload",
            fmt="bv",
            vertex=v,
        )
    try:
        ref_offset, pos = _read_varint(data, pos)
        copied = np.empty(0, dtype=np.int64)
        if ref_offset:
            if ref_offset > v:
                raise CorruptStreamError(
                    f"reference offset {ref_offset} points before vertex 0",
                    fmt="bv",
                    vertex=v,
                )
            if ref_offset > bv.window:
                raise CorruptStreamError(
                    f"reference offset {ref_offset} exceeds window {bv.window}",
                    fmt="bv",
                    vertex=v,
                )
            if _depth >= bv.max_ref_chain:
                raise CorruptStreamError(
                    f"reference chain deeper than max_ref_chain "
                    f"{bv.max_ref_chain}",
                    fmt="bv",
                    vertex=v,
                )
            # Recursive dependency on an earlier list.
            reference = bv_decode_list(bv, v - ref_offset, _depth + 1)
            nblocks, pos = _read_varint(data, pos)
            blocks = []
            for _ in range(nblocks):
                b, pos = _read_varint(data, pos)
                blocks.append(b)
            keep = np.zeros(reference.shape[0], dtype=bool)
            cursor = 0
            copy_block = True
            for b in blocks:
                if cursor + b > reference.shape[0]:
                    raise CorruptStreamError(
                        f"copy blocks span {cursor + b} entries, reference "
                        f"list has {reference.shape[0]}",
                        fmt="bv",
                        vertex=v,
                    )
                if copy_block:
                    keep[cursor : cursor + b] = True
                cursor += b
                copy_block = not copy_block
            copied = reference[keep]
        n_res, pos = _read_varint(data, pos)
        residuals = np.empty(n_res, dtype=np.int64)
        prev = v
        for i in range(n_res):
            raw, pos = _read_varint(data, pos)
            value = prev + (_unzigzag(raw) if i == 0 else raw + 1)
            if value < 0:
                raise CorruptStreamError(
                    f"residual {i} decodes to negative id {value}",
                    fmt="bv",
                    vertex=v,
                )
            residuals[i] = value
            prev = value
    except CorruptStreamError as exc:
        if exc.vertex is None:
            # _read_varint tags errors fmt="cgr" (shared helper); rehome.
            raise CorruptStreamError(exc.detail, fmt="bv", vertex=v) from exc
        raise
    merged = np.concatenate([copied, residuals])
    merged.sort()
    deg = int(bv.graph.degrees[v])
    if deg >= 0 and merged.shape[0] != deg:
        raise CorruptStreamError(
            f"decoded {merged.shape[0]} neighbours, degree is {deg}",
            fmt="bv",
            vertex=v,
        )
    return merged


def bv_encode(
    graph: Graph,
    window: int = DEFAULT_WINDOW,
    max_ref_chain: int = DEFAULT_MAX_REF_CHAIN,
) -> BVGraph:
    """Encode every list with windowed reference compression (offline)."""
    if window < 0 or max_ref_chain < 1:
        raise ValueError("window must be >= 0 and max_ref_chain >= 1")
    chunks: list[bytes] = []
    offsets = np.zeros(graph.num_nodes + 1, dtype=np.int64)
    window_lists: list[tuple[int, np.ndarray]] = []
    chain_depth: dict[int, int] = {}
    for v in range(graph.num_nodes):
        nbrs = graph.neighbours(v)
        blob, ref_offset = _encode_list(
            v, nbrs, window_lists, chain_depth, max_ref_chain
        )
        chain_depth[v] = (
            chain_depth.get(v - ref_offset, 0) + 1 if ref_offset else 0
        )
        chunks.append(blob)
        offsets[v + 1] = offsets[v] + len(blob)
        window_lists.append((v, nbrs))
        if len(window_lists) > window:
            window_lists.pop(0)
    data = (
        np.frombuffer(b"".join(chunks), dtype=np.uint8)
        if chunks
        else np.empty(0, dtype=np.uint8)
    )
    for arr in (offsets, data):
        if arr.flags.writeable:
            arr.flags.writeable = False
    return BVGraph(
        graph=graph, offsets=offsets, data=data, window=window,
        max_ref_chain=max_ref_chain,
        payload_crc=arrays_crc32(data),
        meta_crc=arrays_crc32(offsets, window, max_ref_chain),
    )
