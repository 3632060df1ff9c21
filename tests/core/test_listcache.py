"""Tests for the byte-budgeted decoded-list cache."""

import numpy as np
import pytest

from repro.core.listcache import DECODED_ELEM_BYTES, DecodedListCache


def _lst(n, start=0):
    return np.arange(start, start + n, dtype=np.int64)


def _used_bytes(cache: DecodedListCache) -> int:
    """Bytes of the budget the resident lists occupy."""
    return DECODED_ELEM_BYTES * sum(e.shape[0] for e in cache._entries.values())


class TestValidation:
    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            DecodedListCache(budget_bytes=0)


class TestPutAndBudget:
    def test_put_and_probe(self):
        cache = DecodedListCache(budget_bytes=1024)
        assert cache.put(3, _lst(5))
        assert 3 in cache
        assert 4 not in cache
        mask = cache.probe(np.array([3, 4]))
        assert mask.tolist() == [True, False]
        (got,) = cache.get_many(np.array([3]))
        assert np.array_equal(got, _lst(5))

    def test_budget_respected(self):
        cache = DecodedListCache(budget_bytes=10 * DECODED_ELEM_BYTES)
        for v in range(5):
            cache.put(v, _lst(4))
        assert _used_bytes(cache) <= cache.budget_bytes
        assert len(cache) == 2  # two 4-element lists fit in 10 slots

    def test_oversized_list_rejected(self):
        cache = DecodedListCache(budget_bytes=8 * DECODED_ELEM_BYTES)
        cache.put(0, _lst(4))
        assert not cache.put(1, _lst(9))
        assert cache.stats.rejected == 1
        assert 0 in cache  # resident entries untouched by the rejection

    def test_reinsert_replaces_bytes(self):
        cache = DecodedListCache(budget_bytes=1024)
        cache.put(7, _lst(100))
        cache.put(7, _lst(10))
        assert _used_bytes(cache) == 10 * DECODED_ELEM_BYTES
        assert len(cache) == 1

    def test_views_are_copied(self):
        # A cached slice must not alias (and so pin) its parent buffer.
        cache = DecodedListCache(budget_bytes=1024)
        buf = np.arange(100, dtype=np.int64)
        view = buf[10:20]
        cache.put(1, view)
        buf[:] = -1
        (got,) = cache.get_many(np.array([1]))
        assert np.array_equal(got, np.arange(10, 20))


class TestEviction:
    def test_lru_evicts_least_recent(self):
        cache = DecodedListCache(budget_bytes=8 * DECODED_ELEM_BYTES)
        cache.put(0, _lst(4))
        cache.put(1, _lst(4))
        cache.probe(np.array([0]))  # touch 0 -> 1 is now least recent
        cache.put(2, _lst(4))
        assert 0 in cache and 2 in cache and 1 not in cache
        assert cache.stats.evictions == 1


class TestEdgeCases:
    def test_reput_resident_vertex_under_tight_budget(self):
        # Growing a resident entry releases its old bytes *before*
        # evicting, so the entry never competes with itself for space.
        cache = DecodedListCache(budget_bytes=8 * DECODED_ELEM_BYTES)
        cache.put(0, _lst(4))
        cache.put(1, _lst(4))
        assert cache.put(0, _lst(8))  # now needs the whole budget
        assert 0 in cache and 1 not in cache
        assert _used_bytes(cache) == 8 * DECODED_ELEM_BYTES
        assert cache.stats.evictions == 1
        (got,) = cache.get_many(np.array([0]))
        assert np.array_equal(got, _lst(8))

    def test_used_bytes_never_exceeds_budget(self, rng):
        # Invariant lock: arbitrary interleaving of puts, re-puts and
        # probes keeps the occupied bytes within the budget.
        cache = DecodedListCache(budget_bytes=25 * DECODED_ELEM_BYTES)
        for _ in range(300):
            v = int(rng.integers(0, 12))
            n = int(rng.integers(0, 30))
            cache.put(v, _lst(n, start=v))
            cache.probe(rng.integers(0, 12, size=3))
            assert _used_bytes(cache) <= cache.budget_bytes
            # The running count the eviction loop reads agrees.
            assert cache._bytes == _used_bytes(cache)


class TestStats:
    def test_hit_rate(self):
        cache = DecodedListCache(budget_bytes=1024)
        cache.put(0, _lst(3))
        cache.probe(np.array([0, 1, 2, 0]))
        assert cache.stats.hits == 2
        assert cache.stats.misses == 2
        assert cache.stats.lookups == 4
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_empty_hit_rate_is_zero(self):
        assert DecodedListCache(budget_bytes=64).stats.hit_rate == 0.0

    def test_as_dict_keys(self):
        d = DecodedListCache(budget_bytes=64).stats.as_dict()
        for key in ("hits", "misses", "evictions", "bytes_saved",
                    "instr_saved", "hit_rate"):
            assert key in d

    def test_reset_stats_keeps_entries(self):
        cache = DecodedListCache(budget_bytes=1024)
        cache.put(0, _lst(3))
        cache.probe(np.array([0]))
        cache.reset_stats()
        assert cache.stats.lookups == 0
        assert 0 in cache

    def test_clear_drops_entries(self):
        cache = DecodedListCache(budget_bytes=1024)
        cache.put(0, _lst(3))
        cache.clear()
        assert len(cache) == 0
        assert _used_bytes(cache) == 0
