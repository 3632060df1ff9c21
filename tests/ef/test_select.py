"""Tests for select1 over packed bit arrays."""

import numpy as np
import pytest

from repro.ef.select import select1_all, select1_bitarray, select1_scalar


def _reference_positions(data: np.ndarray) -> list[int]:
    """All set-bit positions (LSB-first) by brute force."""
    out = []
    for byte_idx, byte in enumerate(data):
        for bit in range(8):
            if byte & (1 << bit):
                out.append(byte_idx * 8 + bit)
    return out


class TestSelect1Scalar:
    def test_paper_example(self):
        # Fig. 2 upper bits: gaps unary-coded; select1(4) must be 7.
        # Upper array for {1,3,5,11,15,21,25,32} with l=2:
        # highs = {0,0,1,2,3,5,6,8}; stop bit i at highs[i]+i.
        data = np.zeros(2, dtype=np.uint8)
        highs = [0, 0, 1, 2, 3, 5, 6, 8]
        for i, h in enumerate(highs):
            pos = h + i
            data[pos >> 3] |= 1 << (pos & 7)
        assert select1_scalar(data, 4) == 7

    def test_random(self, rng):
        data = rng.integers(0, 256, size=50).astype(np.uint8)
        positions = _reference_positions(data)
        for i in range(len(positions)):
            assert select1_scalar(data, i) == positions[i]

    def test_start_bit_resume(self, rng):
        data = rng.integers(0, 256, size=20).astype(np.uint8)
        positions = _reference_positions(data)
        if len(positions) < 5:
            pytest.skip("unlucky draw")
        # Resume after the 2nd bit: the 0th bit from there is the 3rd.
        start = positions[2] + 1
        assert select1_scalar(data, 0, start_bit=start) == positions[3]

    def test_not_enough_bits(self):
        with pytest.raises(IndexError):
            select1_scalar(np.array([0b101], dtype=np.uint8), 2)

    def test_negative_index(self):
        with pytest.raises(ValueError):
            select1_scalar(np.array([1], dtype=np.uint8), -1)


class TestSelect1Batched:
    def test_matches_scalar(self, rng):
        data = rng.integers(0, 256, size=100).astype(np.uint8)
        positions = _reference_positions(data)
        idx = np.arange(len(positions))
        got = select1_bitarray(data, idx)
        assert got.tolist() == positions

    def test_subset_queries(self, rng):
        data = rng.integers(1, 256, size=30).astype(np.uint8)
        positions = _reference_positions(data)
        queries = np.array([0, len(positions) - 1, len(positions) // 2])
        got = select1_bitarray(data, queries)
        assert got.tolist() == [positions[q] for q in queries]

    def test_empty_queries(self):
        out = select1_bitarray(np.array([255], dtype=np.uint8), np.array([], dtype=np.int64))
        assert out.shape == (0,)

    def test_too_many(self):
        with pytest.raises(IndexError):
            select1_bitarray(np.array([0b11], dtype=np.uint8), np.array([2]))

    def test_negative(self):
        with pytest.raises(ValueError):
            select1_bitarray(np.array([1], dtype=np.uint8), np.array([-1]))


def _rank1(data: np.ndarray, pos: int) -> int:
    """Set bits strictly before ``pos``: a search over ``select1_all``."""
    return int(np.searchsorted(select1_all(data), pos))


class TestRank1:
    def test_matches_reference(self, rng):
        data = rng.integers(0, 256, size=40).astype(np.uint8)
        positions = set(_reference_positions(data))
        for pos in [0, 1, 7, 8, 9, 100, 320]:
            assert _rank1(data, pos) == sum(1 for p in positions if p < pos)

    def test_rank_select_inverse(self, rng):
        data = rng.integers(1, 256, size=20).astype(np.uint8)
        positions = _reference_positions(data)
        for i, p in enumerate(positions):
            assert _rank1(data, p) == i
            assert select1_bitarray(data, np.array([i]))[0] == p

    def test_beyond_end(self):
        data = np.array([0xFF], dtype=np.uint8)
        assert _rank1(data, 1000) == 8

    def test_negative(self):
        with pytest.raises(ValueError):
            select1_bitarray(np.array([1], dtype=np.uint8), np.array([-1]))
