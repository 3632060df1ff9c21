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
    "popcount_bytes",
    "popcount_u64",
    "select_in_byte",
    "select_in_bytes_vector",
    "bits_to_bytes",
    "bytes_to_bits",
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


def popcount_bytes(data: np.ndarray) -> np.ndarray:
    """Vectorized popcount over a uint8 array.

    Models every thread in a block issuing ``__popc`` on its local byte
    simultaneously.

    Parameters
    ----------
    data:
        Array of ``uint8`` byte values (any shape).

    Returns
    -------
    Array of the same shape, dtype ``uint8``: set-bit count per byte.
    """
    data = np.asarray(data)
    if data.dtype != np.uint8:
        raise TypeError(f"popcount_bytes expects uint8, got {data.dtype}")
    return POPCOUNT_TABLE[data]


def popcount_u64(values: np.ndarray) -> np.ndarray:
    """Vectorized popcount over uint64 words (8 LUT probes per word)."""
    values = np.ascontiguousarray(values, dtype=np.uint64)
    as_bytes = values.view(np.uint8).reshape(values.shape + (8,))
    return POPCOUNT_TABLE[as_bytes].sum(axis=-1, dtype=np.int64)


def select_in_byte(byte: int, i: int) -> int:
    """Scalar select: position of the i-th (0-indexed) set bit of ``byte``.

    Returns 8 when the byte has at most ``i`` set bits — callers must
    guard, exactly as the CUDA kernel does by bounding ``val_id``.
    """
    if not 0 <= byte <= 255:
        raise ValueError(f"byte out of range: {byte}")
    if not 0 <= i <= 7:
        raise ValueError(f"select index out of range: {i}")
    return int(SELECT_IN_BYTE_TABLE[byte, i])


def select_in_bytes_vector(bytes_: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Vectorized ``select1_byte`` — one LUT probe per (byte, index) pair.

    Parameters
    ----------
    bytes_:
        uint8 array of target bytes, one per thread.
    indices:
        Per-thread rank of the set bit to locate within its byte
        (0-indexed, must be in ``[0, 8)``).

    Returns
    -------
    int64 array of in-byte bit positions; 8 marks "not present".
    """
    bytes_ = np.asarray(bytes_, dtype=np.uint8)
    indices = np.asarray(indices)
    if bytes_.shape != indices.shape:
        raise ValueError(
            f"shape mismatch: bytes {bytes_.shape} vs indices {indices.shape}"
        )
    if indices.size and (indices.min() < 0 or indices.max() > 7):
        raise ValueError("select indices must be within [0, 8)")
    return SELECT_IN_BYTE_TABLE_I64[bytes_, indices]


def bits_to_bytes(nbits: int) -> int:
    """Number of bytes needed to hold ``nbits`` bits."""
    if nbits < 0:
        raise ValueError(f"negative bit count: {nbits}")
    return (nbits + 7) >> 3


def bytes_to_bits(nbytes: int) -> int:
    """Bit capacity of ``nbytes`` bytes."""
    if nbytes < 0:
        raise ValueError(f"negative byte count: {nbytes}")
    return nbytes << 3


#: ``_VARINT_LIMITS[k-1] = 2**(7k)``: a value needs ``k+1`` varint bytes
#: iff it is at least ``2**(7k)`` (ten bytes cover all of uint64).
_VARINT_LIMITS = np.array([1 << (7 * k) for k in range(1, 10)], dtype=np.uint64)


def pack_varints(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LEB128-encode a uint64 array: 7 payload bits per byte, 0x80 = more.

    Returns the concatenated varint bytes and the inclusive cumulative
    byte count after each value.  One scatter pass per byte index: pass
    ``b`` writes byte ``b`` of every value that is longer than ``b``
    bytes, so the loop runs at most ten times.
    """
    nbytes = np.searchsorted(_VARINT_LIMITS, values, side="right") + 1
    ends = np.cumsum(nbytes)
    out = np.empty(int(ends[-1]) if ends.shape[0] else 0, dtype=np.uint8)
    pos = ends - nbytes
    while pos.shape[0]:
        more = nbytes > 1
        out[pos] = (values & 0x7F).astype(np.uint8) | (more.astype(np.uint8) << 7)
        pos, values, nbytes = pos[more] + 1, values[more] >> 7, nbytes[more] - 1
    return out, ends
