"""Ring-buffer time-series: ordering, eviction, windowed rollups."""

import pytest

from repro.obs.timeseries import TimeSeries


class TestRecord:
    def test_points_in_order(self):
        ts = TimeSeries(capacity=8)
        for t in (0.0, 1.0, 2.5):
            ts.record(t, t * 10)
        assert ts.stats(10.0, now=2.5)["sum"] == 35.0
        # (1.0, 2.5] holds only the newest sample.
        assert ts.stats(1.5, now=2.5)["sum"] == 25.0
        with pytest.raises(ValueError, match="backwards"):
            ts.record(2.0)

    def test_equal_timestamps_allowed(self):
        ts = TimeSeries(capacity=4)
        ts.record(1.0, 1.0)
        ts.record(1.0, 2.0)
        assert ts.stats(1.0, now=1.0)["count"] == 2

    def test_time_backwards_raises(self):
        ts = TimeSeries(capacity=4)
        ts.record(2.0)
        with pytest.raises(ValueError, match="backwards"):
            ts.record(1.0)

    def test_bad_capacity_raises(self):
        with pytest.raises(ValueError):
            TimeSeries(capacity=0)


class TestEviction:
    def test_ring_keeps_newest(self):
        ts = TimeSeries(capacity=3)
        for t in range(6):
            ts.record(float(t), float(t))
        stats = ts.stats(100.0, now=5.0)
        assert stats["count"] == 3
        assert stats["sum"] == 3.0 + 4.0 + 5.0

    def test_no_drop_below_capacity(self):
        ts = TimeSeries(capacity=3)
        for t in range(3):
            ts.record(float(t))
        assert ts.stats(100.0, now=2.0)["count"] == 3


class TestStats:
    def test_window_selects_recent(self):
        ts = TimeSeries(capacity=16)
        for t in range(10):
            ts.record(float(t), 2.0)
        # (now - window, now] = (4, 9]: five samples.
        stats = ts.stats(5.0, now=9.0)
        assert stats["count"] == 5
        assert stats["sum"] == 10.0
        assert stats["mean"] == 2.0
        assert stats["rate"] == 1.0  # 5 samples / 5 seconds
        assert stats["value_rate"] == 2.0

    def test_samples_after_now_excluded(self):
        ts = TimeSeries(capacity=8)
        ts.record(1.0, 1.0)
        ts.record(5.0, 1.0)
        assert ts.stats(10.0, now=2.0)["count"] == 1

    def test_empty_window_zeroes(self):
        ts = TimeSeries(capacity=8)
        stats = ts.stats(1.0, now=0.0)
        assert stats == {
            "count": 0, "sum": 0.0, "mean": 0.0, "max": 0.0,
            "rate": 0.0, "value_rate": 0.0,
        }

    def test_max_tracked(self):
        ts = TimeSeries(capacity=8)
        ts.record(0.0, 3.0)
        ts.record(1.0, 7.0)
        ts.record(2.0, 5.0)
        assert ts.stats(10.0, now=2.0)["max"] == 7.0

