"""Tests for popcount and select-in-byte lookup tables."""

import numpy as np
import pytest

from repro.primitives.bitops import (
    POPCOUNT_TABLE,
    SELECT_IN_BYTE_TABLE,
    SELECT_IN_BYTE_TABLE_I64,
)


class TestPopcountTable:
    def test_known_values(self):
        assert POPCOUNT_TABLE[0] == 0
        assert POPCOUNT_TABLE[0xFF] == 8
        assert POPCOUNT_TABLE[0b10101000] == 3
        assert POPCOUNT_TABLE[1] == 1

    def test_matches_bin_count(self):
        for b in range(256):
            assert POPCOUNT_TABLE[b] == bin(b).count("1")

    def test_table_is_immutable(self):
        with pytest.raises(ValueError):
            POPCOUNT_TABLE[0] = 5


class TestSelectTable:
    def test_size_is_2kib(self):
        assert SELECT_IN_BYTE_TABLE.nbytes == 2048

    def test_all_entries_against_reference(self):
        for b in range(256):
            positions = [p for p in range(8) if b & (1 << p)]
            for i in range(8):
                expect = positions[i] if i < len(positions) else 8
                assert SELECT_IN_BYTE_TABLE[b, i] == expect

    def test_table_is_immutable(self):
        with pytest.raises(ValueError):
            SELECT_IN_BYTE_TABLE[0, 0] = 1


class TestSelectInByte:
    """In-byte select is one probe of the table, as in the kernels."""

    def test_example_from_paper(self):
        # Fig. 5: select the 2nd (0-indexed) set bit of 10101000b.
        # LSB-first: set bits at positions 3, 5, 7 -> rank 2 is pos 7.
        assert SELECT_IN_BYTE_TABLE[0b10101000, 2] == 7

    def test_not_enough_bits_returns_8(self):
        assert SELECT_IN_BYTE_TABLE[0b1, 1] == 8

    def test_rejects_bad_byte(self):
        with pytest.raises(IndexError):
            SELECT_IN_BYTE_TABLE[300, 0]

    def test_rejects_bad_index(self):
        with pytest.raises(IndexError):
            SELECT_IN_BYTE_TABLE[1, 9]


class TestSelectInBytesVector:
    """The int64 view ``repro.core.kernels`` gathers from, one probe per thread."""

    def test_matches_scalar(self, rng):
        bytes_ = rng.integers(0, 256, size=64).astype(np.uint8)
        idx = rng.integers(0, 8, size=64)
        got = SELECT_IN_BYTE_TABLE_I64[bytes_, idx]
        assert got.dtype == np.int64
        for b, i, g in zip(bytes_, idx, got):
            assert g == SELECT_IN_BYTE_TABLE[int(b), int(i)]

    def test_shape_mismatch(self):
        with pytest.raises(IndexError):
            SELECT_IN_BYTE_TABLE_I64[
                np.zeros(3, dtype=np.uint8), np.zeros(4, dtype=np.int64)
            ]

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            SELECT_IN_BYTE_TABLE_I64[np.zeros(1, dtype=np.uint8), np.array([8])]

