"""Tests for the LSB-first bitstream layer."""

import numpy as np
import pytest

from repro.ef.bitstream import BitReader, BitWriter, extract_fields
from repro.ef.encoding import ef_encode


class TestBitWriter:
    def test_single_bits(self):
        w = BitWriter()
        for bit in [1, 0, 1, 1]:
            w.write_bit(bit)
        assert w.getvalue()[0] == 0b1101
        assert len(w) == 4

    def test_write_bits_lsb_first(self):
        w = BitWriter()
        w.write_bits(0b101, 3)
        w.write_bits(0b11, 2)
        # Stream: 1,0,1 then 1,1 -> byte 0b00011101.
        assert w.getvalue()[0] == 0b11101

    def test_write_bits_crossing_byte(self):
        w = BitWriter()
        w.write_bits(0xABC, 12)
        data = w.getvalue()
        assert data[0] == 0xBC
        assert data[1] == 0x0A

    def test_unary(self):
        w = BitWriter()
        w.write_unary(3)  # 000 1
        w.write_unary(0)  # 1
        assert w.getvalue()[0] == 0b11000

    def test_align(self):
        w = BitWriter()
        w.write_bit(1)
        w.align_to_byte()
        assert len(w) == 8
        w.write_bit(1)
        assert w.getvalue()[1] == 1

    def test_value_too_wide(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_bits(8, 3)

    def test_negative_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_bits(-1, 4)

    def test_growth(self):
        w = BitWriter(capacity_bits=8)
        for _ in range(1000):
            w.write_bit(1)
        assert len(w) == 1000
        assert np.all(w.getvalue()[:125] == 0xFF)


class TestBitReader:
    def test_roundtrip_bits(self, rng):
        w = BitWriter()
        bits = rng.integers(0, 2, size=100)
        for b in bits:
            w.write_bit(int(b))
        r = BitReader(w.getvalue())
        assert [r.read_bit() for _ in range(100)] == bits.tolist()

    def test_roundtrip_fields(self, rng):
        w = BitWriter()
        widths = rng.integers(1, 30, size=50)
        values = [int(rng.integers(0, 1 << wd)) for wd in widths]
        for v, wd in zip(values, widths):
            w.write_bits(v, int(wd))
        r = BitReader(w.getvalue())
        assert [r.read_bits(int(wd)) for wd in widths] == values

    def test_roundtrip_unary(self, rng):
        w = BitWriter()
        gaps = rng.integers(0, 40, size=30)
        for g in gaps:
            w.write_unary(int(g))
        r = BitReader(w.getvalue())
        assert [r.read_unary() for _ in gaps] == gaps.tolist()

    def test_seek(self):
        w = BitWriter()
        w.write_bits(0b11110000, 8)
        r = BitReader(w.getvalue())
        r.seek(4)
        assert r.read_bits(4) == 0b1111
        assert r.position == 8


class TestPackBits:
    """Fixed-width fields packed LSB-first: the EF lower-bits section.

    ``x_i = (i << w) | v_i`` with ``u = n << w`` gives ``l = w``, so the
    encoder's lower section holds exactly the fields ``v_i``.
    """

    @staticmethod
    def _pack(values, width):
        n = values.shape[0]
        seq = ef_encode(
            (np.arange(n, dtype=np.int64) << width) | values.astype(np.int64),
            u=n << width,
            quantum=8,
        )
        assert seq.num_lower_bits == width
        return seq.lower

    def test_roundtrip(self, rng):
        for width in [0, 1, 3, 8, 13, 31, 40]:
            count = 37
            hi = (1 << width) if width else 1
            values = rng.integers(0, hi, size=count).astype(np.uint64)
            packed = self._pack(values, width)
            assert packed.shape[0] == (count * width + 7) // 8
            if width == 0:
                continue
            out = extract_fields(packed, np.arange(count) * width, width)
            assert np.array_equal(out, values)

    def test_matches_bitwriter(self, rng):
        width = 5
        values = rng.integers(0, 32, size=20).astype(np.uint64)
        packed = self._pack(values, width)
        w = BitWriter()
        for v in values:
            w.write_bits(int(v), width)
        assert np.array_equal(packed, w.getvalue())


class TestExtractFields:
    def test_arbitrary_positions(self, rng):
        w = BitWriter()
        # Layout: 17 bits of junk then three 11-bit fields at odd offsets.
        w.write_bits(0x1ABCD & ((1 << 17) - 1), 17)
        fields = [1000, 37, 2047]
        positions = []
        for f in fields:
            positions.append(len(w))
            w.write_bits(f, 11)
            w.write_bit(1)  # misalign the next one
        got = extract_fields(w.getvalue(), np.array(positions), 11)
        assert got.tolist() == fields

    def test_width_zero(self):
        out = extract_fields(np.zeros(4, dtype=np.uint8), np.array([0, 5]), 0)
        assert out.tolist() == [0, 0]

    def test_near_end_of_buffer(self):
        data = np.array([0xFF, 0x01], dtype=np.uint8)
        # Field starting at bit 12 with width 4: bits 12-15 = 0000.
        assert extract_fields(data, np.array([12]), 4)[0] == 0

    def test_wide_field_slow_path(self, rng):
        w = BitWriter()
        value = (1 << 60) - 12345
        w.write_bits(0, 3)
        w.write_bits(value, 61)
        got = extract_fields(w.getvalue(), np.array([3]), 61)
        assert int(got[0]) == value
