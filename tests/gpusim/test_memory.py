"""Tests for the residency planner."""

import pytest

from repro.gpusim.memory import WORKING_PRIORITY, MemoryManager, Residency


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
        mm = MemoryManager(capacity_bytes=1000)
        mm.register("a", 300)
        mm.register("b", 5000)
        resident = sum(
            p.nbytes for p in mm.plan().values() if p.residency is Residency.DEVICE
        )
        assert resident == 300

    def test_summary_mentions_arrays(self):
        mm = MemoryManager(capacity_bytes=100)
        mm.register("myarray", 10)
        assert "myarray" in mm.summary()


class TestWorkingSet:
    def test_replaces_previous_set(self):
        mm = MemoryManager(capacity_bytes=1000)
        mm.working({"work:a": 100, "work:b": 200})
        mm.working({"work:c": 50})
        assert list(mm.plan()) == ["work:c"]
        with pytest.raises(KeyError):
            mm.residency("work:a")

    def test_replacing_frees_room(self):
        # A set left behind by an earlier run must not push the graph out.
        mm = MemoryManager(capacity_bytes=1000)
        mm.register("payload", 700, priority=1)
        mm.working({"work:big": 400})
        assert mm.residency("payload") is Residency.HOST
        mm.working({"work:small": 200})
        assert mm.residency("payload") is Residency.DEVICE

    def test_persistent_arrays_survive(self):
        mm = MemoryManager(capacity_bytes=1000)
        mm.register("vlist", 10, priority=0)
        mm.register("work:listcache", 20, priority=WORKING_PRIORITY)
        mm.working({"work:a": 30})
        mm.working({"work:b": 40})
        assert set(mm.plan()) == {"vlist", "work:listcache", "work:b"}

    def test_tie_order_working_then_persistent(self):
        # At the working priority the run's set goes first, in the
        # order given, then the persistent arrays in registration order.
        mm = MemoryManager(capacity_bytes=1000)
        mm.register("work:listcache", 10, priority=WORKING_PRIORITY)
        mm.register("elist", 10, priority=1)
        mm.register("work:pinned", 10, priority=WORKING_PRIORITY)
        mm.working({"work:z": 10, "work:a": 10})
        assert list(mm.plan()) == [
            "work:z", "work:a", "work:listcache", "work:pinned", "elist",
        ]
        assert {p.priority for p in mm.plan().values() if p.name != "elist"} == {
            WORKING_PRIORITY
        }

    def test_tie_order_decides_what_spills(self):
        mm = MemoryManager(capacity_bytes=100)
        mm.register("work:listcache", 60, priority=WORKING_PRIORITY)
        mm.working({"work:a": 60})
        assert mm.residency("work:a") is Residency.DEVICE
        assert mm.residency("work:listcache") is Residency.HOST

    def test_negative_size_rejected(self):
        mm = MemoryManager(capacity_bytes=100)
        with pytest.raises(ValueError):
            mm.working({"a": -1})
