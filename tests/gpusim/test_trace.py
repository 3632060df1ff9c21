"""Tests for the chrome-trace exporter."""

import pytest

from repro.gpusim.device import TITAN_XP
from repro.gpusim.engine import SimEngine
from repro.gpusim.trace import timeline_events


@pytest.fixture
def engine():
    eng = SimEngine.for_device(TITAN_XP)
    eng.memory.register("arr", 1000)
    with eng.launch("expand") as k:
        k.read("arr", 100, 4)
    with eng.launch("filter") as k:
        k.instructions(1e6)
    with eng.launch("expand") as k:
        k.read("arr", 50, 4)
    return eng


class TestTimelineEvents:
    def test_one_event_per_launch(self, engine):
        events = timeline_events(engine)
        assert len(events) == 3
        assert [e["name"] for e in events] == ["expand", "filter", "expand"]

    def test_events_contiguous(self, engine):
        events = timeline_events(engine)
        for prev, cur in zip(events, events[1:]):
            assert cur["ts"] == pytest.approx(prev["ts"] + prev["dur"])

    def test_total_matches_elapsed(self, engine):
        events = timeline_events(engine)
        total_us = sum(e["dur"] for e in events)
        assert total_us == pytest.approx(engine.elapsed_seconds * 1e6)

    def test_same_kernel_same_track(self, engine):
        events = timeline_events(engine)
        assert events[0]["tid"] == events[2]["tid"]
        assert events[0]["tid"] != events[1]["tid"]

    def test_track_assignment_stable(self, engine):
        # Tracks are numbered by first appearance, so repeated export of
        # the same engine (or the same launch order in another run)
        # yields identical tids.
        first = timeline_events(engine)
        second = timeline_events(engine)
        assert [e["tid"] for e in first] == [e["tid"] for e in second]
        assert [e["tid"] for e in first] == [0, 1, 0]

    def test_ts_uses_recorded_start_times(self, engine):
        # Timestamps must come from each record's stored start_s, never
        # from re-accumulating durations: events pick up a start-time
        # perturbation even though every duration is unchanged.
        events = timeline_events(engine)
        for event, record in zip(events, engine.records):
            assert event["ts"] == pytest.approx(record.start_s * 1e6)
            assert event["dur"] == pytest.approx(record.seconds * 1e6)
        shifted = engine.records[1]
        engine.records[1] = type(shifted)(
            **{**shifted.__dict__, "start_s": shifted.start_s + 1.0}
        )
        bumped = timeline_events(engine)
        assert bumped[1]["ts"] == pytest.approx(events[1]["ts"] + 1e6)
        assert bumped[2]["ts"] == pytest.approx(events[2]["ts"])

    def test_empty_timeline(self):
        eng = SimEngine.for_device(TITAN_XP)
        assert timeline_events(eng) == []
