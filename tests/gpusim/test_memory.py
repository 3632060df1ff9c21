"""Tests for the residency planner."""

import pytest

from repro.gpusim.memory import MemoryManager, Residency


class TestPlanning:
    def test_everything_fits(self):
        mm = MemoryManager(capacity_bytes=1000)
        mm.register("a", 400)
        mm.register("b", 500)
        assert mm.all_resident()
        assert mm.residency("a") is Residency.DEVICE

    def test_spill_to_host(self):
        mm = MemoryManager(capacity_bytes=1000)
        mm.register("a", 800, priority=0)
        mm.register("b", 500, priority=1)
        assert mm.residency("a") is Residency.DEVICE
        assert mm.residency("b") is Residency.HOST
        assert not mm.all_resident()

    def test_priority_order(self):
        mm = MemoryManager(capacity_bytes=1000)
        mm.register("big_low_prio", 900, priority=5)
        mm.register("small_high_prio", 900, priority=0)
        assert mm.residency("small_high_prio") is Residency.DEVICE
        assert mm.residency("big_low_prio") is Residency.HOST

    def test_reserve_shrinks_capacity(self):
        mm = MemoryManager(capacity_bytes=1000, reserve_bytes=600)
        mm.register("a", 500)
        assert mm.residency("a") is Residency.HOST

    def test_greedy_continues_after_spill(self):
        # A later small array can still fit after a big one spilled.
        mm = MemoryManager(capacity_bytes=1000)
        mm.register("big", 2000, priority=0)
        mm.register("small", 100, priority=1)
        assert mm.residency("big") is Residency.HOST
        assert mm.residency("small") is Residency.DEVICE

    def test_reregister_invalidate(self):
        mm = MemoryManager(capacity_bytes=100)
        mm.register("a", 50)
        assert mm.residency("a") is Residency.DEVICE
        mm.register("a", 500)
        assert mm.residency("a") is Residency.HOST

    def test_unknown_array(self):
        mm = MemoryManager(capacity_bytes=100)
        with pytest.raises(KeyError):
            mm.residency("nope")

    def test_negative_size_rejected(self):
        mm = MemoryManager(capacity_bytes=100)
        with pytest.raises(ValueError):
            mm.register("a", -1)

    def test_device_bytes_used(self):
        mm = MemoryManager(capacity_bytes=1000, reserve_bytes=100)
        mm.register("a", 300)
        mm.register("b", 5000)
        resident = sum(
            p.nbytes for p in mm.plan().values() if p.residency is Residency.DEVICE
        )
        assert mm.reserve_bytes + resident == 400

    def test_summary_mentions_arrays(self):
        mm = MemoryManager(capacity_bytes=100)
        mm.register("myarray", 10)
        assert "myarray" in mm.summary()
