"""Gamma and zeta_k codes over the scalar bitstream reference.

No codec in the package uses these bit-level gap codes (BV and CGR write
7-bit varints).  They stay here as the demanding workload for
``BitWriter``/``BitReader``, the scalar oracle the vectorized EF layer is
checked against: unary runs interleaved with minimal-binary fields of
every width up to 50 bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ef.bitstream import BitReader, BitWriter


def gamma_encode(writer: BitWriter, value: int) -> None:
    """Elias gamma of ``value + 1``: unary(bit length - 1), then the low bits."""
    if value < 0:
        raise ValueError(f"gamma requires non-negative value, got {value}")
    x = value + 1
    nbits = x.bit_length()
    writer.write_unary(nbits - 1)
    writer.write_bits(x - (1 << (nbits - 1)), nbits - 1)


def gamma_decode(reader: BitReader) -> int:
    nbits = reader.read_unary() + 1
    return (1 << (nbits - 1)) + reader.read_bits(nbits - 1) - 1


def gamma_length_bits(value: int) -> int:
    return 2 * (value + 1).bit_length() - 1


def _zeta_interval(x: int, k: int) -> tuple[int, int, int, int]:
    """``(h, lo, width, short)``: ``x`` lies in ``[2^(hk), 2^((h+1)k))``,
    whose minimal binary code gives the first ``short`` offsets ``width``
    bits and the rest ``width + 1``."""
    h = (x.bit_length() - 1) // k
    lo = 1 << (h * k)
    m = (1 << ((h + 1) * k)) - lo
    width = m.bit_length() - 1
    return h, lo, width, (1 << (width + 1)) - m


def zeta_encode(writer: BitWriter, value: int, k: int = 3) -> None:
    """Boldi-Vigna zeta_k, the WebGraph gap code (zeta_1 is gamma)."""
    if value < 0:
        raise ValueError(f"zeta requires non-negative value, got {value}")
    if k < 1:
        raise ValueError(f"zeta shape k must be >= 1, got {k}")
    h, lo, width, short = _zeta_interval(value + 1, k)
    writer.write_unary(h)
    offset = value + 1 - lo
    if offset < short:
        writer.write_bits(offset, width)
    else:
        long_code = offset + short
        writer.write_bits(long_code >> 1, width)
        writer.write_bit(long_code & 1)


def zeta_decode(reader: BitReader, k: int = 3) -> int:
    h = reader.read_unary()
    _, lo, width, short = _zeta_interval(1 << (h * k), k)
    first = reader.read_bits(width)
    offset = first if first < short else (first << 1 | reader.read_bit()) - short
    return lo + offset - 1


def zeta_length_bits(value: int, k: int = 3) -> int:
    h, lo, width, short = _zeta_interval(value + 1, k)
    return h + 1 + width + (value + 1 - lo >= short)


def encode_gap_stream(values: np.ndarray, k: int = 3) -> np.ndarray:
    writer = BitWriter(capacity_bits=max(64, 8 * len(values)))
    for value in np.asarray(values, dtype=np.int64):
        zeta_encode(writer, int(value), k)
    return writer.getvalue()


def decode_gap_stream(data: np.ndarray, count: int, k: int = 3) -> np.ndarray:
    reader = BitReader(data)
    return np.array([zeta_decode(reader, k) for _ in range(count)], dtype=np.int64)


class TestGamma:
    @pytest.mark.parametrize("value", [0, 1, 2, 3, 7, 8, 100, 2**20, 2**40])
    def test_roundtrip(self, value):
        w = BitWriter()
        gamma_encode(w, value)
        assert gamma_decode(BitReader(w.getvalue())) == value

    def test_known_lengths(self):
        # gamma(0) codes 1 -> 1 bit; gamma(2) codes 3 -> 3 bits.
        assert gamma_length_bits(0) == 1
        assert gamma_length_bits(2) == 3
        assert gamma_length_bits(7) == 7

    def test_length_matches_encoder(self, rng):
        for value in rng.integers(0, 10**9, size=100):
            w = BitWriter()
            gamma_encode(w, int(value))
            assert len(w) == gamma_length_bits(int(value))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            gamma_encode(BitWriter(), -1)


class TestZeta:
    @given(value=st.integers(0, 2**50), k=st.integers(1, 8))
    @settings(max_examples=300, deadline=None)
    def test_roundtrip_property(self, value, k):
        w = BitWriter()
        zeta_encode(w, value, k)
        assert zeta_decode(BitReader(w.getvalue()), k) == value

    def test_zeta1_equals_gamma_lengths(self, rng):
        for value in rng.integers(0, 10**6, size=200):
            assert zeta_length_bits(int(value), 1) == gamma_length_bits(int(value))

    def test_length_matches_encoder(self, rng):
        for value in rng.integers(0, 10**9, size=100):
            for k in (1, 2, 3, 5):
                w = BitWriter()
                zeta_encode(w, int(value), k)
                assert len(w) == zeta_length_bits(int(value), k), (value, k)

    def test_sequence_interleaved(self, rng):
        values = rng.integers(0, 10**6, size=300)
        w = BitWriter()
        for v in values:
            zeta_encode(w, int(v), 3)
        r = BitReader(w.getvalue())
        got = [zeta_decode(r, 3) for _ in values]
        assert got == values.tolist()

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            zeta_encode(BitWriter(), -1)
        with pytest.raises(ValueError):
            zeta_encode(BitWriter(), 5, k=0)


class TestGapStream:
    def test_roundtrip(self, rng):
        values = rng.integers(0, 10**5, size=500)
        blob = encode_gap_stream(values)
        assert np.array_equal(decode_gap_stream(blob, 500), values)

    def test_zeta_beats_bytes_on_small_gaps(self, rng):
        # Web-like small gaps: zeta_3 should undercut one-byte varints.
        gaps = rng.integers(0, 30, size=2000)
        blob = encode_gap_stream(gaps, k=3)
        assert blob.shape[0] < 2000  # < 1 byte per gap on average
