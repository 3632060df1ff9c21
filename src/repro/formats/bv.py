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

from repro.core.errors import CorruptStreamError
from repro.formats.cgr import _read_varint, _unzigzag, _write_varint, _zigzag
from repro.formats.graph import Graph
from repro.formats.integrity import ListContainer, arrays_crc32, pack_lists

__all__ = ["BVGraph", "bv_encode"]

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
class BVGraph(ListContainer):
    """Whole-graph BV-style container (ratio comparator, CPU decode)."""

    graph: Graph
    window: int
    max_ref_chain: int

    FMT = "bv"

    @property
    def vlist(self) -> np.ndarray:
        """The embedded graph's degree prefix sum."""
        return self.graph.vlist

    @property
    def nbytes(self) -> int:
        """Storage: 4 B offsets per vertex + payload."""
        return 4 * int(self.offsets.shape[0]) + int(self.data.shape[0])

    def _crc_metadata(self) -> tuple[np.ndarray | int, ...]:
        return (self.offsets, self.window, self.max_ref_chain)

    def decode_list(self, v: int, _depth: int = 0) -> np.ndarray:
        """Dependent-chain decoder (the reason BV resists GPU porting).

        Hardened against corrupt streams: reference offsets must stay
        inside the window and point at earlier vertices, chains are
        bounded by ``max_ref_chain`` (a corrupt offset cannot drive the
        recursion to a RecursionError), copy-block cursors are checked
        against the reference length, and varint reads are
        bounds-checked.
        """
        data = self.data
        pos = self.list_start(v)
        ref_offset, pos = _read_varint(data, pos)
        copied = np.empty(0, dtype=np.int64)
        if ref_offset:
            if ref_offset > v:
                raise CorruptStreamError(
                    f"reference offset {ref_offset} points before vertex 0",
                    fmt="bv",
                    vertex=v,
                )
            if ref_offset > self.window:
                raise CorruptStreamError(
                    f"reference offset {ref_offset} exceeds window {self.window}",
                    fmt="bv",
                    vertex=v,
                )
            if _depth >= self.max_ref_chain:
                raise CorruptStreamError(
                    f"reference chain deeper than max_ref_chain "
                    f"{self.max_ref_chain}",
                    fmt="bv",
                    vertex=v,
                )
            # Recursive dependency on an earlier list.
            reference = self._decode_tagged(v - ref_offset, _depth + 1)
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
        merged = np.concatenate([copied, residuals])
        merged.sort()
        deg = int(self.degrees[v])
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
    window_lists: list[tuple[int, np.ndarray]] = []
    chain_depth: dict[int, int] = {}
    blobs: list[bytes] = []
    for v in range(graph.num_nodes):
        nbrs = graph.neighbours(v)
        blob, ref_offset = _encode_list(
            v, nbrs, window_lists, chain_depth, max_ref_chain
        )
        chain_depth[v] = (
            chain_depth.get(v - ref_offset, 0) + 1 if ref_offset else 0
        )
        blobs.append(blob)
        window_lists.append((v, nbrs))
        if len(window_lists) > window:
            window_lists.pop(0)
    offsets, data = pack_lists(blobs)
    return BVGraph(
        graph=graph, offsets=offsets, data=data, window=window,
        max_ref_chain=max_ref_chain,
        payload_crc=arrays_crc32(data),
        meta_crc=arrays_crc32(offsets, window, max_ref_chain),
    )
