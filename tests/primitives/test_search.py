"""Tests for bounded binary searches."""

import numpy as np
import pytest

from repro.primitives.search import binsearch_maxle


class TestBinsearchMaxle:
    def test_fig4_example(self):
        # Fig. 4: thread t4 searches 4 in {0, 2, 5, 7} -> index 1.
        exsum = np.array([0, 2, 5, 7])
        assert binsearch_maxle(exsum, np.array([4]))[0] == 1

    def test_all_threads_fig4(self):
        exsum = np.array([0, 2, 5, 7])
        tids = np.arange(8)
        got = binsearch_maxle(exsum, tids)
        assert got.tolist() == [0, 0, 1, 1, 1, 2, 2, 3]

    def test_exact_hits(self):
        vals = np.array([0, 10, 20])
        assert binsearch_maxle(vals, np.array([0, 10, 20])).tolist() == [0, 1, 2]

    def test_beyond_end(self):
        assert binsearch_maxle(np.array([0, 5]), np.array([100]))[0] == 1

    def test_below_start_raises(self):
        with pytest.raises(ValueError):
            binsearch_maxle(np.array([5, 10]), np.array([3]))

    def test_empty_haystack_raises(self):
        with pytest.raises(ValueError):
            binsearch_maxle(np.array([]), np.array([1]))

    def test_duplicates_return_last(self):
        vals = np.array([0, 2, 2, 2, 9])
        assert binsearch_maxle(vals, np.array([2]))[0] == 3

    def test_random_against_linear_scan(self, rng):
        vals = np.sort(rng.integers(0, 1000, size=50))
        vals[0] = 0
        queries = rng.integers(0, 1100, size=200)
        got = binsearch_maxle(vals, queries)
        for q, g in zip(queries, got):
            assert vals[g] <= q
            assert g == len(vals) - 1 or vals[g + 1] > q

