"""``select1`` over packed bit arrays.

``select1(i)`` returns the position of the i-th (0-indexed) set bit of a
bitstream — the foundational operation of EF decoding (Sec. IV-A).  The
GPU kernels never call the scalar version in a loop; they batch it via
popcount + scan + binsearch (:func:`select1_bitarray`), exactly the
decomposition of Alg. 2.
"""

from __future__ import annotations

import numpy as np

from repro.primitives.bitops import (
    POPCOUNT_TABLE,
    POPCOUNT_TABLE_I64,
    SELECT_IN_BYTE_TABLE,
    SELECT_IN_BYTE_TABLE_I64,
)
from repro.primitives.scan import exclusive_scan
from repro.primitives.search import binsearch_maxle

__all__ = ["select1_scalar", "select1_bitarray", "rank1_bitarray"]


def select1_scalar(data: np.ndarray, i: int, start_bit: int = 0) -> int:
    """Position (relative to bit 0 of ``data``) of the i-th set bit.

    Sequential reference implementation: random access runs it from the
    closest forward-pointer anchor (``start_bit``), and tests use it as
    the oracle for the batched select and the stored pointers.

    Raises
    ------
    IndexError
        If the stream has fewer than ``i + 1`` set bits after
        ``start_bit``.
    """
    if i < 0:
        raise ValueError(f"negative select index: {i}")
    data = np.asarray(data, dtype=np.uint8)
    remaining = i
    pos = start_bit
    nbits = data.shape[0] * 8
    # Skip whole bytes using the popcount LUT.
    while pos < nbits:
        byte = int(data[pos >> 3])
        if pos & 7:
            byte >>= pos & 7
            width = 8 - (pos & 7)
        else:
            width = 8
        count = int(POPCOUNT_TABLE[byte])
        if count <= remaining:
            remaining -= count
            pos += width
            continue
        in_byte = int(SELECT_IN_BYTE_TABLE[byte, remaining])
        return pos + in_byte
    raise IndexError(f"select1({i}): not enough set bits")


def select1_bitarray(data: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Batched ``select1`` over one bit array — the GPU decomposition.

    Performs popcount per byte, an exclusive scan, then per query a
    ``binsearch_maxle`` into the scan plus a ``select1_byte`` LUT probe.
    This is Alg. 2 applied to the full array at once (no tiling) and the
    one batched select of the package: ``decode_lists`` and
    ``ef_decode_range`` both run it.  The tiled/kernel version lives in
    :mod:`repro.core.kernels`.
    """
    data = np.asarray(data, dtype=np.uint8)
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        return np.empty(0, dtype=np.int64)
    if indices.min() < 0:
        raise ValueError("negative select index")
    popc = POPCOUNT_TABLE_I64[data]
    exsum, total = exclusive_scan(popc)
    if indices.max() >= total:
        raise IndexError("select index beyond number of set bits")
    target_byte = binsearch_maxle(exsum, indices)
    in_byte_rank = indices - exsum[target_byte]
    in_byte_pos = SELECT_IN_BYTE_TABLE_I64[data[target_byte], in_byte_rank]
    return target_byte * 8 + in_byte_pos


def rank1_bitarray(data: np.ndarray, pos: int) -> int:
    """Number of set bits strictly before bit position ``pos``."""
    if pos < 0:
        raise ValueError(f"negative position: {pos}")
    data = np.asarray(data, dtype=np.uint8)
    pos = min(pos, data.shape[0] * 8)
    full_bytes = pos >> 3
    count = int(POPCOUNT_TABLE[data[:full_bytes]].sum()) if full_bytes else 0
    rem = pos & 7
    if rem:
        partial = int(data[full_bytes]) & ((1 << rem) - 1)
        count += int(POPCOUNT_TABLE[partial])
    return count
