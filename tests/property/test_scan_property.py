"""Property-based tests for scan/search/compact primitives."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.primitives.compact import atomic_or_claim
from repro.primitives.scan import (
    exclusive_scan,
    segment_ids_from_flags,
    segmented_exclusive_scan,
)
from repro.primitives.search import binsearch_maxle


small_ints = arrays(
    np.int64, st.integers(1, 300), elements=st.integers(0, 1000)
)


class TestScanProperties:
    @given(values=small_ints)
    @settings(max_examples=100, deadline=None)
    def test_exclusive_scan_invariants(self, values):
        scan, total = exclusive_scan(values)
        assert scan[0] == 0
        assert total == values.sum()
        assert np.all(np.diff(scan) == values[:-1])

    @given(values=small_ints, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_segmented_scan_matches_loop(self, values, data):
        flags = np.array(
            data.draw(
                st.lists(st.booleans(), min_size=len(values), max_size=len(values))
            )
        )
        got = segmented_exclusive_scan(values, flags)
        acc = 0
        for i in range(len(values)):
            if i == 0 or flags[i]:
                acc = 0
            assert got[i] == acc
            acc += values[i]

    @given(values=small_ints)
    @settings(max_examples=50, deadline=None)
    def test_segment_ids_monotone(self, values):
        flags = values % 7 == 0
        ids = segment_ids_from_flags(flags)
        assert np.all(np.diff(ids) >= 0)
        assert ids[0] == 0


class TestSearchProperties:
    @given(values=small_ints, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_maxle_is_correct_bound(self, values, data):
        scan, total = exclusive_scan(values)
        q = data.draw(st.integers(0, int(total) + 10))
        idx = int(binsearch_maxle(scan, np.array([q]))[0])
        assert scan[idx] <= q
        if idx + 1 < len(scan):
            assert scan[idx + 1] > q or scan[idx + 1] == scan[idx]

    @given(values=small_ints)
    @settings(max_examples=50, deadline=None)
    def test_maxle_edge_partition_bijection(self, values):
        # Fig. 4 invariant: thread t maps to vertex i iff
        # scan[i] <= t < scan[i] + degree[i].
        scan, total = exclusive_scan(values)
        if total == 0:
            return
        tids = np.arange(total)
        idx = binsearch_maxle(scan, tids)
        within = tids - scan[idx]
        assert np.all(within >= 0)
        assert np.all(within < np.maximum(values[idx], 1))


class TestAtomicProperties:
    @given(
        indices=arrays(np.int64, st.integers(0, 400), elements=st.integers(0, 99)),
        preset=st.lists(st.integers(0, 99), max_size=20),
    )
    @settings(max_examples=80, deadline=None)
    def test_claim_semantics(self, indices, preset):
        flags = np.zeros(100, dtype=bool)
        flags[preset] = True
        before = flags.copy()
        won = atomic_or_claim(flags, indices)
        # Winners claimed exactly the previously-unset indices, once.
        for v in np.unique(indices):
            wins = won[indices == v].sum()
            assert wins == (0 if before[v] else 1)
        # All touched indices end set; untouched unchanged.
        assert flags[np.unique(indices)].all() if indices.size else True
        untouched = np.setdiff1d(np.arange(100), indices)
        assert np.array_equal(flags[untouched], before[untouched])
