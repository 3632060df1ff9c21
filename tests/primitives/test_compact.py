"""Tests for the bitmap scatter and atomic claiming."""

import numpy as np
import pytest

from repro.primitives.compact import atomic_or_claim, scatter_bitmap_to_indices


class TestScatterBitmap:
    def test_basic(self):
        bitmap = np.array([False, True, False, True, True])
        assert scatter_bitmap_to_indices(bitmap).tolist() == [1, 3, 4]

    def test_empty(self):
        assert scatter_bitmap_to_indices(np.zeros(5, dtype=bool)).shape == (0,)

    def test_output_sorted(self, rng):
        bitmap = rng.random(1000) < 0.3
        out = scatter_bitmap_to_indices(bitmap)
        assert np.all(np.diff(out) > 0)
        assert out.shape[0] == bitmap.sum()


class TestAtomicOrClaim:
    def test_single_winner_per_duplicate(self):
        flags = np.zeros(10, dtype=bool)
        indices = np.array([3, 3, 3, 5])
        won = atomic_or_claim(flags, indices)
        assert won.tolist() == [True, False, False, True]
        assert flags[3] and flags[5]

    def test_already_set_loses(self):
        flags = np.zeros(4, dtype=bool)
        flags[2] = True
        won = atomic_or_claim(flags, np.array([2, 1]))
        assert won.tolist() == [False, True]

    def test_flags_updated_in_place(self):
        flags = np.zeros(3, dtype=bool)
        atomic_or_claim(flags, np.array([0, 2]))
        assert flags.tolist() == [True, False, True]

    def test_empty(self):
        flags = np.zeros(3, dtype=bool)
        assert atomic_or_claim(flags, np.array([], dtype=np.int64)).shape == (0,)
        assert not flags.any()

    def test_exactly_one_winner_property(self, rng):
        flags = np.zeros(100, dtype=bool)
        indices = rng.integers(0, 100, size=500)
        won = atomic_or_claim(flags, indices)
        # Every distinct index has exactly one winner.
        for v in np.unique(indices):
            assert won[indices == v].sum() == 1
        assert flags[np.unique(indices)].all()

    def test_rejects_non_bool_flags(self):
        with pytest.raises(TypeError):
            atomic_or_claim(np.zeros(3, dtype=np.int32), np.array([0]))
