"""Tests for the simulation engine."""

import numpy as np
import pytest

from repro.gpusim.device import TITAN_XP
from repro.gpusim.engine import SimEngine


@pytest.fixture
def engine():
    eng = SimEngine.for_device(TITAN_XP)
    eng.memory.register("arr", 1000)
    return eng


class TestLaunch:
    def test_timeline_accumulates(self, engine):
        with engine.launch("k1") as k:
            k.read("arr", 100, 4)
        with engine.launch("k2") as k:
            k.read("arr", 100, 4)
        assert engine.num_launches == 2
        assert engine.elapsed_seconds > 0

    def test_reset(self, engine):
        with engine.launch("k") as k:
            k.instructions(1e9)
        engine.reset_timeline()
        assert engine.elapsed_seconds == 0
        assert engine.num_launches == 0

    def test_launch_overhead_counted(self, engine):
        with engine.launch("noop"):
            pass
        assert engine.elapsed_seconds == pytest.approx(
            TITAN_XP.launch_overhead_s
        )

    def test_summary_merges_by_name(self, engine):
        for _ in range(3):
            with engine.launch("same") as k:
                k.read("arr", 10, 4)
        summary = engine.kernel_summary()
        assert summary["same"]["launches"] == 3
        assert summary["same"]["device_bytes"] == 3 * 40

    def test_profile_report_format(self, engine):
        with engine.launch("expand") as k:
            k.instructions(100)
        report = engine.profile_report()
        assert "expand" in report
        assert "time(ms)" in report


class TestLaunchRecords:
    def test_records_carry_start_timestamps(self, engine):
        with engine.launch("a") as k:
            k.read("arr", 100, 4)
        with engine.launch("b") as k:
            k.read("arr", 100, 4)
        a, b = engine.records
        assert a.start_s == 0.0
        assert b.start_s == pytest.approx(a.seconds)
        assert b.start_s + b.seconds == pytest.approx(engine.elapsed_seconds)

    def test_elapsed_matches_record_sum(self, engine):
        for i in range(5):
            with engine.launch(f"k{i}") as k:
                k.read("arr", 10 * (i + 1), 4)
        assert engine.elapsed_seconds == pytest.approx(
            sum(r.seconds for r in engine.records), abs=1e-15
        )

    def test_record_cost_is_a_snapshot(self, engine):
        with engine.launch("k") as k:
            k.read("arr", 100, 4)
        (record,) = engine.records
        assert record.cost.device_bytes == 400

    def test_long_name_truncated_in_profile_report(self, engine):
        name = "a_kernel_name_far_longer_than_the_column_width"
        with engine.launch(name) as k:
            k.read("arr", 10, 4)
        report = engine.profile_report()
        assert name not in report
        assert name[:31] + "…" in report

    def test_sample_series(self, engine):
        engine.sample("frontier_size", 1)
        with engine.launch("k") as k:
            k.read("arr", 10, 4)
        engine.sample("frontier_size", 9)
        series = engine.series["frontier_size"]
        assert series[0] == (0.0, 1.0)
        assert series[1] == (engine.elapsed_seconds, 9.0)
        engine.reset_timeline()
        assert engine.series == {}


class TestKernelLaunchAPI:
    def test_atomic_charges_random(self, engine):
        with engine.launch("k") as k:
            k.atomic("arr", 10, 4)
            assert k.cost.device_bytes == 10 * TITAN_XP.sector_bytes
            assert k.cost.instructions == 20

    def test_read_stream(self, engine):
        with engine.launch("k") as k:
            k.read_stream("arr", np.arange(64), 4)
            # 64 sequential 4 B reads = 8 sectors of 32 B.
            assert k.cost.device_bytes == 8 * 32

    def test_serial_work_multiplies_by_warp(self, engine):
        with engine.launch("k") as k:
            k.serial_work(10)
            assert k.cost.instructions == 10 * 32

    def test_serial_floor(self, engine):
        with engine.launch("k") as k:
            k.serial_floor(TITAN_XP.clock_hz)  # one second of cycles
        assert engine.elapsed_seconds >= 1.0

    def test_negative_instructions_rejected(self, engine):
        with pytest.raises(ValueError):
            with engine.launch("k") as k:
                k.instructions(-1)


class TestCachedAndBitmaskHooks:
    def test_cached_read_in_summary(self, engine):
        with engine.launch("hit") as k:
            k.cached_read("efg_decoded", 1000, 4)
        row = engine.kernel_summary()["hit"]
        assert row["cached_bytes"] == 4000
        assert engine.elapsed_seconds > 0

    def test_cached_read_faster_than_dram(self, engine):
        with engine.launch("hit") as k:
            k.cached_read("lists", 10**9, 4)
        cached = engine.elapsed_seconds
        engine.reset_timeline()
        with engine.launch("miss") as k:
            k.read("arr", 10**9, 4)
        assert cached < engine.elapsed_seconds

    def test_bitmask_ops_charge_instructions(self, engine):
        with engine.launch("ms") as k:
            k.bitmask_ops(10**9)
        assert engine.elapsed_seconds > TITAN_XP.launch_overhead_s

    def test_bitmask_ops_validation(self, engine):
        with engine.launch("ms") as k:
            with pytest.raises(ValueError):
                k.bitmask_ops(-1)


class TestCounters:
    def test_record_and_read(self, engine):
        engine.metrics.inc("listcache:hits", 3)
        engine.metrics.inc("listcache:hits", 2)
        assert engine.counters["listcache:hits"] == 5

    def test_counters_property_is_a_copy(self, engine):
        engine.metrics.inc("x", 1)
        engine.counters["x"] = 99
        assert engine.counters["x"] == 1

    def test_reset_clears_counters(self, engine):
        engine.metrics.inc("x", 1)
        engine.reset_timeline()
        assert engine.counters == {}

    def test_profile_report_lists_counters(self, engine):
        with engine.launch("k") as k:
            k.read("arr", 10, 4)
        engine.metrics.inc("listcache:hits", 7)
        report = engine.profile_report()
        assert "listcache:hits" in report
        assert "7" in report


class TestCachedBytesSingleColumn:
    """Regression: cached reads must never double-count as DRAM bytes."""

    def test_cached_bytes_excluded_from_dram_column(self, engine):
        with engine.launch("mix") as k:
            k.read("arr", 100, 4)  # 400 B DRAM
            k.cached_read("lists", 50, 4)  # 200 B cache, 0 B DRAM
        row = engine.kernel_summary()["mix"]
        assert row["device_bytes"] == 400
        assert row["cached_bytes"] == 200
        (record,) = engine.records
        # The breakdown separates the two with the cache: prefix, and
        # each column is exactly the sum of its own breakdown terms.
        dram = sum(
            v
            for key, v in record.cost.breakdown.items()
            if not key.startswith("cache:")
        )
        cache = sum(
            v
            for key, v in record.cost.breakdown.items()
            if key.startswith("cache:")
        )
        assert dram == row["device_bytes"] + row["host_bytes"]
        assert cache == row["cached_bytes"]

    def test_profile_report_shows_disjoint_byte_columns(self, engine):
        with engine.launch("mix") as k:
            k.read("arr", 100, 4)
            k.cached_read("lists", 50, 4)
        report = engine.profile_report()
        assert "dram MB" in report
        assert "cache MB" in report


class TestWarpOccupancy:
    def test_uniform_lists_full_efficiency(self, engine):
        with engine.launch("k") as k:
            k.warp_occupancy(np.full(64, 5))
        (record,) = engine.records
        assert record.cost.active_lanes == record.cost.lane_slots

    def test_skewed_warp_diverges(self, engine):
        # One hub of 320 among 31 leaves of 10: warp runs 320 steps.
        degrees = np.full(32, 10)
        degrees[0] = 320
        with engine.launch("k") as k:
            k.warp_occupancy(degrees)
        (record,) = engine.records
        expected = (31 * 10 + 320) / (32 * 320)
        cost = record.cost
        assert cost.active_lanes / cost.lane_slots == pytest.approx(expected)

    def test_partial_warp_padded(self, engine):
        with engine.launch("k") as k:
            k.warp_occupancy([8])  # one lane, 31 padded idle lanes
        (record,) = engine.records
        assert record.cost.active_lanes == 8
        assert record.cost.lane_slots == 32 * 8

    def test_empty_and_negative(self, engine):
        with engine.launch("k") as k:
            k.warp_occupancy([])
            assert k.cost.lane_slots == 0
        with pytest.raises(ValueError):
            with engine.launch("bad") as k:
                k.warp_occupancy([-1])

    def test_summary_aggregates_lanes(self, engine):
        for _ in range(2):
            with engine.launch("same") as k:
                k.warp_occupancy(np.full(32, 3))
        row = engine.kernel_summary()["same"]
        assert row["active_lanes"] == 2 * 32 * 3
        assert row["lane_slots"] == 2 * 32 * 3
