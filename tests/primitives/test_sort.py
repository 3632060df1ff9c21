"""Tests for the partial frontier sort (Sec. VI-E)."""

import numpy as np
import pytest

from repro.gpusim.device import TITAN_XP
from repro.gpusim.engine import SimEngine
from repro.primitives.sort import (
    kept_bits,
    launch_partial_sort,
    partial_radix_sort_key,
    partial_sort_frontier,
)


class TestPartialKey:
    def test_keeps_top_bits(self):
        keys = np.array([0b11111111], dtype=np.uint64)
        masked = partial_radix_sort_key(keys, total_bits=8, fraction=0.5)
        # 65% default not used; fraction 0.5 keeps top 4 bits.
        assert masked[0] == 0b11110000

    def test_full_fraction_keeps_all(self):
        keys = np.array([0b1011], dtype=np.uint64)
        assert partial_radix_sort_key(keys, 4, 1.0)[0] == 0b1011

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            partial_radix_sort_key(np.array([1]), 8, 0.0)

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            partial_radix_sort_key(np.array([1]), 0)


class TestPartialSortFrontier:
    def test_preserves_multiset(self, rng):
        frontier = rng.integers(0, 10000, size=500)
        out = partial_sort_frontier(frontier, 10000)
        assert np.array_equal(np.sort(out), np.sort(frontier))

    def test_improves_order(self, rng):
        frontier = rng.permutation(100000)[:5000]
        out = partial_sort_frontier(frontier, 100000)
        # Partial sort restores locality: the mean jump between
        # consecutive entries collapses from ~uniform-random to the
        # dropped-bits neighbourhood.
        span_before = float(np.abs(np.diff(frontier)).mean())
        span_after = float(np.abs(np.diff(out)).mean())
        assert span_after < span_before / 50

    def test_top_bits_fully_sorted(self, rng):
        num_nodes = 1 << 16
        frontier = rng.integers(0, num_nodes, size=2000)
        out = partial_sort_frontier(frontier, num_nodes, fraction=0.65)
        kept = int(round(16 * 0.65))
        shift = 16 - kept
        assert np.all(np.diff(out >> shift) >= 0)

    def test_empty(self):
        out = partial_sort_frontier(np.array([], dtype=np.int64), 10)
        assert out.shape == (0,)

    def test_full_fraction_is_exact_sort(self, rng):
        frontier = rng.integers(0, 1 << 10, size=300)
        out = partial_sort_frontier(frontier, 1 << 10, fraction=1.0)
        assert np.array_equal(out, np.sort(frontier))


class TestLaunchPartialSort:
    def test_kept_bits_follow_the_largest_id(self):
        # 8,200 ids span bit_length(8,199) = 14 bits; 65% keeps 9.
        assert kept_bits(8200) == 9
        assert kept_bits(1 << 10, fraction=1.0) == 10
        assert kept_bits(1) == 1

    def test_charge_prices_the_bits_the_sort_keys_on(self, rng):
        # Nine kept bits are two 8-bit radix passes.  Pricing from
        # round(log2(8,200) * 0.65) = 8 bits would charge one.
        engine = SimEngine.for_device(TITAN_XP)
        engine.memory.register("work:frontier", 4 * 8200)
        frontier = rng.permutation(8200)[:1000]
        out = launch_partial_sort(engine, "frontier_sort", frontier, 8200, 4)
        assert np.array_equal(out, partial_sort_frontier(frontier, 8200))
        (record,) = engine.records
        assert record.name == "frontier_sort"
        assert record.cost.instructions == 8.0 * 2 * frontier.size
        assert record.cost.device_bytes == 2 * 2 * frontier.size * 4
