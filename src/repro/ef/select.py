"""``select1`` over packed bit arrays.

``select1(i)`` returns the position of the i-th (0-indexed) set bit of a
bitstream — the foundational operation of EF decoding (Sec. IV-A).  The
GPU kernels never call the scalar version in a loop; they batch it via
popcount + scan + binsearch, the decomposition of Alg. 2 that
:mod:`repro.core.kernels` executes literally.  On the host the batched
select is a bitmap walk instead (:func:`select1_all`): unpack the bits
once and list the set ones, which answers every rank at the cost of one
pass and no per-byte scan arrays.
"""

from __future__ import annotations

import numpy as np

from repro.primitives.bitops import POPCOUNT_TABLE, SELECT_IN_BYTE_TABLE

__all__ = ["select1_scalar", "select1_all", "select1_bitarray"]


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


def select1_all(data: np.ndarray) -> np.ndarray:
    """``select1(i)`` for every set bit of ``data``, in order (int64).

    One ``unpackbits`` (LSB first) and one ``flatnonzero`` over the bit
    map: element ``i`` of the result is the position of the i-th set
    bit, and its length is the popcount.  Scratch is one byte per bit.
    """
    data = np.asarray(data, dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(data, bitorder="little").view(bool))


def select1_bitarray(data: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Batched ``select1`` over one bit array.

    Indexes :func:`select1_all` with the requested ranks.  This is the
    one batched select of the package: ``decode_lists`` and
    ``ef_decode_range`` both run it (``decode_lists`` through
    :func:`select1_all` directly, since it wants every rank).  The
    tiled popcount/scan/binsearch kernel lives in
    :mod:`repro.core.kernels`.

    Raises
    ------
    ValueError
        A negative rank.
    IndexError
        A rank at or beyond the number of set bits.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        return np.empty(0, dtype=np.int64)
    if indices.min() < 0:
        raise ValueError("negative select index")
    positions = select1_all(data)
    if indices.max() >= positions.shape[0]:
        raise IndexError("select index beyond number of set bits")
    return positions[indices]

