"""Tests for scan primitives (plain and segmented)."""

import numpy as np
import pytest

from repro.primitives.scan import (
    exclusive_scan,
    segment_ids_from_flags,
    segmented_exclusive_scan,
)


class TestExclusiveScan:
    def test_paper_example(self):
        # Fig. 4: degrees {2, 3, 2, 1} -> exclusive sum {0, 2, 5, 7}.
        scan, total = exclusive_scan(np.array([2, 3, 2, 1]))
        assert scan.tolist() == [0, 2, 5, 7]
        assert total == 8

    def test_empty(self):
        scan, total = exclusive_scan(np.array([], dtype=np.int64))
        assert scan.shape == (0,)
        assert total == 0

    def test_single(self):
        scan, total = exclusive_scan(np.array([5]))
        assert scan.tolist() == [0]
        assert total == 5

    def test_matches_cumsum(self, rng):
        vals = rng.integers(0, 100, size=1000)
        scan, total = exclusive_scan(vals)
        expect = np.concatenate([[0], np.cumsum(vals)[:-1]])
        assert np.array_equal(scan, expect)
        assert total == vals.sum()


class TestInclusiveScan:
    """The inclusive sum is the exclusive scan plus the input."""

    def test_basic(self):
        vals = np.array([1, 2, 3])
        ex, total = exclusive_scan(vals)
        assert (ex + vals).tolist() == [1, 3, 6]
        assert total == 6

    def test_relationship_with_exclusive(self, rng):
        vals = rng.integers(0, 50, size=200)
        ex, total = exclusive_scan(vals)
        assert np.array_equal(ex + vals, np.cumsum(vals))
        assert total == int(ex[-1] + vals[-1])


class TestSegmentIds:
    def test_basic(self):
        flags = np.array([True, False, True, False, False, True])
        assert segment_ids_from_flags(flags).tolist() == [0, 0, 1, 1, 1, 2]

    def test_first_forced_start(self):
        flags = np.array([False, False, True])
        assert segment_ids_from_flags(flags).tolist() == [0, 0, 1]

    def test_empty(self):
        assert segment_ids_from_flags(np.array([], dtype=bool)).shape == (0,)


class TestSegmentedScan:
    def test_fig7_example(self):
        # Fig. 7: popcounts per byte with list boundaries; the
        # segmented exclusive sum restarts at each list.
        popc = np.array([3, 5, 3, 2, 4, 1])
        flags = np.array([True, False, True, False, True, False])
        seg = segmented_exclusive_scan(popc, flags)
        assert seg.tolist() == [0, 3, 0, 3, 0, 4]

    def test_single_segment_equals_plain(self, rng):
        vals = rng.integers(0, 20, size=100)
        flags = np.zeros(100, dtype=bool)
        flags[0] = True
        ex, _ = exclusive_scan(vals)
        assert np.array_equal(segmented_exclusive_scan(vals, flags), ex)

    def test_every_element_own_segment(self):
        vals = np.array([7, 8, 9])
        flags = np.ones(3, dtype=bool)
        assert segmented_exclusive_scan(vals, flags).tolist() == [0, 0, 0]

    def test_inclusive_variant(self):
        vals = np.array([1, 2, 3, 4])
        flags = np.array([True, False, True, False])
        inclusive = segmented_exclusive_scan(vals, flags) + vals
        assert inclusive.tolist() == [1, 3, 3, 7]

    def test_random_against_reference(self, rng):
        vals = rng.integers(0, 10, size=500)
        flags = rng.random(500) < 0.1
        flags[0] = True
        got = segmented_exclusive_scan(vals, flags)
        # Reference: per-segment Python loop.
        acc = 0
        for i in range(500):
            if flags[i]:
                acc = 0
            assert got[i] == acc
            acc += vals[i]

    def test_empty(self):
        out = segmented_exclusive_scan(
            np.array([], dtype=np.int64), np.array([], dtype=bool)
        )
        assert out.shape == (0,)
