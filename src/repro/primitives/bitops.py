"""Bit-manipulation primitives: popcount, in-byte select, LEB128 varints.

The paper's decompression kernels rest on two per-byte operations
(Sec. VI-B):

* ``popcount(byte)`` — the number of set bits, i.e. how many Elias-Fano
  upper-bits values a byte will produce (CUDA ``__popc``).
* ``select1_byte(byte, i)`` — the position of the *i*-th (0-indexed) set
  bit inside a byte, implemented on the GPU as a 2 KiB lookup table in
  constant memory.  We build the identical 256x8 table here.

:func:`pack_varints` is the one vectorized LEB128 packer behind the CGR
payload and the ``varint`` frontier wire codec.

Bit order convention: **LSB-first** (paper Fig. 3 footnote: the layout in
memory puts the least significant bit at the right end, so ``select``
scans from bit 0 upward).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "POPCOUNT_TABLE",
    "SELECT_IN_BYTE_TABLE",
    "POPCOUNT_TABLE_I64",
    "SELECT_IN_BYTE_TABLE_I64",
    "pack_varints",
]


def _build_popcount_table() -> np.ndarray:
    """256-entry popcount lookup table (uint8)."""
    values = np.arange(256, dtype=np.uint16)
    counts = np.zeros(256, dtype=np.uint8)
    for shift in range(8):
        counts += ((values >> shift) & 1).astype(np.uint8)
    return counts


def _build_select_table() -> np.ndarray:
    """256x8 select-in-byte table.

    ``SELECT_IN_BYTE_TABLE[b, i]`` is the bit position (0 = LSB) of the
    i-th set bit of byte value ``b``, or 8 if ``b`` has fewer than ``i+1``
    set bits.  This mirrors the 2 KiB constant-memory LUT in the paper.
    """
    table = np.full((256, 8), 8, dtype=np.uint8)
    for byte in range(256):
        rank = 0
        for pos in range(8):
            if byte & (1 << pos):
                table[byte, rank] = pos
                rank += 1
    return table


#: 256-entry popcount LUT (mirrors CUDA ``__popc`` on a byte).
POPCOUNT_TABLE: np.ndarray = _build_popcount_table()

#: 256x8 select LUT (the paper's 2 KiB constant-memory table).
SELECT_IN_BYTE_TABLE: np.ndarray = _build_select_table()

#: int64 view of :data:`POPCOUNT_TABLE` — LUT gathers used as indices
#: (scan/binsearch inputs) need int64, and widening the 256-entry table
#: once is far cheaper than a per-call ``.astype`` on every gather.
POPCOUNT_TABLE_I64: np.ndarray = POPCOUNT_TABLE.astype(np.int64)

#: int64 view of :data:`SELECT_IN_BYTE_TABLE` (same rationale).
SELECT_IN_BYTE_TABLE_I64: np.ndarray = SELECT_IN_BYTE_TABLE.astype(np.int64)

# Make the module-level tables immutable so a buggy kernel cannot corrupt
# what models read-only constant memory.
POPCOUNT_TABLE.setflags(write=False)
SELECT_IN_BYTE_TABLE.setflags(write=False)
POPCOUNT_TABLE_I64.setflags(write=False)
SELECT_IN_BYTE_TABLE_I64.setflags(write=False)


#: ``_VARINT_LIMITS[k-1] = 2**(7k)``: a value needs ``k+1`` varint bytes
#: iff it is at least ``2**(7k)`` (ten bytes cover all of uint64).
_VARINT_LIMITS = np.array([1 << (7 * k) for k in range(1, 10)], dtype=np.uint64)


def pack_varints(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LEB128-encode a uint64 array: 7 payload bits per byte, 0x80 = more.

    Returns the concatenated varint bytes and the inclusive cumulative
    byte count after each value.  One scatter pass per byte index: pass
    ``b`` writes byte ``b`` of every value that is longer than ``b``
    bytes, so the loop runs at most ten times.  Byte counts are held as
    uint8, so the scratch beside the int64 ends is a few bytes a value.
    """
    nbytes = np.searchsorted(_VARINT_LIMITS, values, side="right").astype(np.uint8)
    nbytes += 1
    ends = np.cumsum(nbytes, dtype=np.int64)
    out = np.empty(int(ends[-1]) if ends.shape[0] else 0, dtype=np.uint8)
    pos = ends - nbytes
    while pos.shape[0]:
        more = nbytes > 1
        byte = values.astype(np.uint8)  # the low 8 bits
        byte &= 0x7F
        byte |= more.view(np.uint8) << 7
        out[pos] = byte
        keep = np.flatnonzero(more)
        pos = pos[keep]
        pos += 1
        values = values[keep]
        values >>= 7
        nbytes = nbytes[keep]
        nbytes -= 1
    return out, ends
