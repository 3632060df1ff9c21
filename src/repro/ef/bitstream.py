"""LSB-first bitstream reader/writer over uint8 buffers.

All Elias-Fano sections use the same convention (paper Fig. 3 footnote):
within a byte, bit 0 is the least significant bit, so a ``select`` that
walks the stream left-to-right logically walks each byte from LSB to MSB.

Two layers are provided:

* :class:`BitWriter` / :class:`BitReader` — incremental scalar access,
  used by encoders (compression is an offline step, Sec. VIII-F).
* :func:`extract_fields` — vectorized field reads at arbitrary bit
  positions with per-position widths, used on the hot decode paths:
  one unaligned little-endian 64-bit load per field (a second only for
  the rare field wider than 57 bits), so its scratch is a few bytes per
  field whatever the mix of widths.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = ["BitWriter", "BitReader", "extract_fields"]


class BitWriter:
    """Append-only LSB-first bit buffer.

    Grows geometrically; call :meth:`getvalue` to obtain the packed
    ``uint8`` array (zero-padded to a whole byte).
    """

    def __init__(self, capacity_bits: int = 64) -> None:
        self._buf = np.zeros(max(1, (capacity_bits + 7) >> 3), dtype=np.uint8)
        self._nbits = 0

    def __len__(self) -> int:
        """Number of bits written so far."""
        return self._nbits

    def _ensure(self, extra_bits: int) -> None:
        need = (self._nbits + extra_bits + 7) >> 3
        if need > self._buf.shape[0]:
            new = np.zeros(max(need, 2 * self._buf.shape[0]), dtype=np.uint8)
            new[: self._buf.shape[0]] = self._buf
            self._buf = new

    def write_bit(self, bit: int) -> None:
        """Append a single bit."""
        self._ensure(1)
        if bit:
            self._buf[self._nbits >> 3] |= np.uint8(1 << (self._nbits & 7))
        self._nbits += 1

    def write_bits(self, value: int, width: int) -> None:
        """Append ``width`` bits of ``value``, LSB first."""
        if width < 0:
            raise ValueError(f"negative width: {width}")
        if value < 0:
            raise ValueError(f"negative value: {value}")
        if width and value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        self._ensure(width)
        nbits = self._nbits
        buf = self._buf
        for k in range(width):
            if (value >> k) & 1:
                buf[(nbits + k) >> 3] |= np.uint8(1 << ((nbits + k) & 7))
        self._nbits += width

    def write_unary(self, gap: int) -> None:
        """Append ``gap`` zero bits followed by a single one (stop) bit.

        This is the unary gap code of the EF upper-bits array.
        """
        if gap < 0:
            raise ValueError(f"negative unary gap: {gap}")
        self._ensure(gap + 1)
        self._nbits += gap  # zeros are already present in the buffer
        self.write_bit(1)

    def getvalue(self) -> np.ndarray:
        """Packed uint8 array holding all written bits."""
        return self._buf[: (self._nbits + 7) >> 3].copy()


class BitReader:
    """Sequential LSB-first reader over a uint8 buffer."""

    def __init__(self, data: np.ndarray, start_bit: int = 0) -> None:
        self._data = np.asarray(data, dtype=np.uint8)
        if start_bit < 0:
            raise ValueError(f"negative start bit: {start_bit}")
        self._pos = start_bit

    @property
    def position(self) -> int:
        """Current bit offset."""
        return self._pos

    def seek(self, bit: int) -> None:
        """Jump to an absolute bit offset."""
        if bit < 0:
            raise ValueError(f"negative seek: {bit}")
        self._pos = bit

    def read_bit(self) -> int:
        """Read one bit and advance."""
        byte = self._data[self._pos >> 3]
        bit = (int(byte) >> (self._pos & 7)) & 1
        self._pos += 1
        return bit

    def read_bits(self, width: int) -> int:
        """Read a ``width``-bit little-endian field and advance."""
        value = 0
        for k in range(width):
            value |= self.read_bit() << k
        return value

    def read_unary(self) -> int:
        """Read zeros until a stop bit; return the zero count (the gap)."""
        gap = 0
        while self.read_bit() == 0:
            gap += 1
        return gap


def _load_u64(data: np.ndarray, byte_idx: np.ndarray) -> np.ndarray:
    """The little-endian 64-bit word starting at each byte index.

    One unaligned load per index, through a stride-1 ``<u8`` view of
    ``data`` (contiguous ``uint8``).  Bytes outside ``data`` read as
    zero: the few words that reach past either end are assembled byte
    by byte.
    """
    n = data.shape[0]
    head = n - 7  # words wholly inside data start at bytes [0, head)
    inside = (byte_idx >= 0) & (byte_idx < head)
    if head > 0 and inside.all():
        return _u64_view(data)[byte_idx]
    out = np.zeros(byte_idx.shape[0], dtype=np.uint64)
    if inside.any():
        out[inside] = _u64_view(data)[byte_idx[inside]]
    edge = np.flatnonzero(~inside)
    idx = byte_idx[edge, None] + np.arange(8)
    ok = (idx >= 0) & (idx < n)
    raw = np.zeros(idx.shape, dtype=np.uint64)
    raw[ok] = data[idx[ok]]
    raw <<= np.uint64(8) * np.arange(8, dtype=np.uint64)
    out[edge] = np.bitwise_or.reduce(raw, axis=1)
    return out


def _u64_view(data: np.ndarray) -> np.ndarray:
    """Read-only ``<u8`` view of ``data`` (``n >= 8``), one word per byte."""
    return as_strided(
        data[: data.shape[0] & ~7].view("<u8"),
        shape=(data.shape[0] - 7,),
        strides=(1,),
        writeable=False,
    )


def extract_fields(
    data: np.ndarray, bit_positions: np.ndarray, width: int | np.ndarray
) -> np.ndarray:
    """Read the field of ``width`` bits at each bit position (uint64).

    This is the random-access primitive behind ``get_lower_half`` in
    Alg. 2: each thread fetches its own value's lower bits.  ``width``
    is one width for every field or an array with one width (0-64) per
    position, so a batch of lists with different ``l`` is one call.
    Each field is one unaligned little-endian 64-bit load at its first
    byte, shifted by the bit offset and masked; a field only needs a
    second load when the offset pushes it past that word, which takes
    more than 57 bits.  Bits outside ``data`` read as zero.
    """
    data = np.ascontiguousarray(data, dtype=np.uint8)
    bit_positions = np.asarray(bit_positions, dtype=np.int64)
    width = np.asarray(width)
    if width.size and (int(width.min()) < 0 or int(width.max()) > 64):
        raise ValueError(f"field widths must lie in [0, 64], got {width}")
    width = width.astype(np.uint8)
    byte_idx = bit_positions >> 3
    bit_off = bit_positions.astype(np.uint8)
    bit_off &= 7
    word = _load_u64(data, byte_idx)
    word >>= bit_off
    if width.size and int(width.max()) > 57:
        # Fields that run past their word take their top bits from the
        # word 8 bytes on.
        wide = np.flatnonzero(bit_off + width > 64)
        spill = np.uint8(64) - bit_off[wide]
        word[wide] |= _load_u64(data, byte_idx[wide] + 8) << spill
    del byte_idx
    # Keep the low ``width`` bits: numpy shifts by 64 give 0, so width 0
    # clears the word and width 64 keeps it.
    drop = np.uint8(64) - width
    word <<= drop
    word >>= drop
    return word
