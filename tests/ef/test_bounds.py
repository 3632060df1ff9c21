"""Tests for the a-priori EF storage bounds."""

import numpy as np
import pytest

from repro.ef.bounds import (
    ef_lower_bits,
    ef_num_lower_bits,
    ef_total_bits,
    ef_upper_bits,
)
from repro.ef.encoding import ef_encode


class TestNumLowerBits:
    def test_paper_example(self):
        # n=8, u=32 -> floor(log2(32/8)) = 2.
        assert ef_num_lower_bits(8, 32) == 2

    def test_u_below_n(self):
        assert ef_num_lower_bits(100, 50) == 0

    def test_zero_universe(self):
        assert ef_num_lower_bits(5, 0) == 0

    @pytest.mark.parametrize(
        "n,u,expected",
        [(1, 1, 0), (1, 2, 1), (1, 1024, 10), (3, 24, 3), (8, 63, 2)],
    )
    def test_exact(self, n, u, expected):
        assert ef_num_lower_bits(n, u) == expected

    def test_matches_float_formula(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 1000))
            u = int(rng.integers(0, 10**9))
            got = ef_num_lower_bits(n, u)
            expect = max(0, int(np.floor(np.log2(u / n)))) if u >= n else 0
            assert got == expect, (n, u)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            ef_num_lower_bits(0, 10)
        with pytest.raises(ValueError):
            ef_num_lower_bits(5, -1)


class TestTotalBits:
    def test_paper_example_is_32(self):
        # Fig. 2: 16 lower + 16 upper = 32 bits.
        assert ef_lower_bits(8, 32) == 16
        assert ef_upper_bits(8, 32) == 8 + 8
        assert ef_total_bits(8, 32) == 32

    def test_bound_formula(self, rng):
        # Total <= n * (2 + ceil(log2(u/n))) for u >= n (Sec. IV).
        for _ in range(100):
            n = int(rng.integers(1, 500))
            u = int(rng.integers(n, 10**8))
            bound = n * (2 + int(np.ceil(np.log2(u / n))) if u > n else 2)
            assert ef_total_bits(n, u) <= bound + n  # ceil slack

    def test_encoder_matches_bounds(self, rng):
        # The actual encoder must produce exactly the predicted section
        # sizes (the paper's a-priori size estimation property).
        for _ in range(50):
            n = int(rng.integers(1, 200))
            vals = np.sort(rng.integers(0, 10**6, size=n))
            u = int(vals[-1])
            seq = ef_encode(vals, quantum=1 << 30)
            assert seq.lower.shape[0] == (ef_lower_bits(n, u) + 7) // 8
            assert seq.upper.shape[0] == (ef_upper_bits(n, u) + 7) // 8


def _plain_binary_bits(n: int, u: int) -> int:
    """Plain binary baseline: ``n`` fields of ``ceil(log2(u + 1))`` bits."""
    return n * u.bit_length()


class TestPlainBinary:
    def test_paper_example_is_48(self):
        # Fig. 2: 8 values up to 32 take 8 * 6 = 48 bits in standard
        # binary; EF takes 2 lower bits each plus a 16-bit upper half.
        assert _plain_binary_bits(8, 32) == 48
        assert ef_total_bits(8, 32) == 32

    def test_zero_universe(self):
        # An all-zero sequence needs no binary bits but one EF stop bit each.
        assert _plain_binary_bits(5, 0) == 0
        assert ef_total_bits(5, 0) == 5

    def test_ef_beats_binary_for_dense(self):
        # Dense sequences: EF total < plain binary.
        assert ef_total_bits(1000, 4000) < _plain_binary_bits(1000, 4000)
