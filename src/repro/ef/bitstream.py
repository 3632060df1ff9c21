"""LSB-first bitstream reader/writer over uint8 buffers.

All Elias-Fano sections use the same convention (paper Fig. 3 footnote):
within a byte, bit 0 is the least significant bit, so a ``select`` that
walks the stream left-to-right logically walks each byte from LSB to MSB.

Two layers are provided:

* :class:`BitWriter` / :class:`BitReader` — incremental scalar access,
  used by encoders (compression is an offline step, Sec. VIII-F).
* :func:`extract_fields` — fully vectorized fixed-width field reads,
  used on the hot decode paths.
"""

from __future__ import annotations

import numpy as np

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

    def align_to_byte(self) -> None:
        """Zero-pad to the next byte boundary (sections are byte aligned)."""
        self._nbits = (self._nbits + 7) & ~7
        self._ensure(0)

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


def extract_fields(data: np.ndarray, bit_positions: np.ndarray, width: int) -> np.ndarray:
    """Read a ``width``-bit field at each (arbitrary) bit position.

    This is the random-access primitive behind ``get_lower_half`` in
    Alg. 2: each thread fetches its own value's lower bits.  Handles
    fields straddling up to 8 byte boundaries (width <= 57 guaranteed by
    EF since l <= 57 for 64-bit universes; we support width <= 56 safely
    and fall back for wider fields).
    """
    data = np.asarray(data, dtype=np.uint8)
    bit_positions = np.asarray(bit_positions, dtype=np.int64)
    if width == 0:
        return np.zeros(bit_positions.shape[0], dtype=np.uint64)
    if width > 56:
        # Rare slow path: per-element scalar reads.
        out = np.empty(bit_positions.shape[0], dtype=np.uint64)
        for i, pos in enumerate(bit_positions):
            out[i] = BitReader(data, int(pos)).read_bits(width)
        return out
    byte_idx = bit_positions >> 3
    bit_off = (bit_positions & 7).astype(np.uint64)
    # Gather 8 consecutive bytes per field (little-endian window).
    offsets = np.arange(8, dtype=np.int64)
    gather_idx = byte_idx[:, None] + offsets[None, :]
    safe_idx = np.minimum(gather_idx, data.shape[0] - 1)
    window = data[safe_idx].astype(np.uint64)
    window[gather_idx >= data.shape[0]] = 0
    word = (window << (np.uint64(8) * offsets.astype(np.uint64))[None, :]).sum(
        axis=1, dtype=np.uint64
    )
    mask = np.uint64((1 << width) - 1)
    return (word >> bit_off) & mask
