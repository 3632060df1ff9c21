"""SLO specs, burn-rate evaluation, and the JSONL event log."""

import json

import pytest

from repro.obs.slo import EventLog, SLOEngine, SLOSpec


def latency_spec(**kw):
    base = dict(
        name="lat", kind="latency", objective=0.9, threshold_s=1e-7,
        long_window_s=1e-6, short_window_s=1e-7, burn_threshold=2.0,
    )
    base.update(kw)
    return SLOSpec(**base)


class TestSpecValidation:
    def test_valid_specs(self):
        latency_spec()
        SLOSpec(name="m", kind="miss", objective=0.95)

    @pytest.mark.parametrize("bad", [
        dict(kind="throughput"),
        dict(objective=0.0),
        dict(objective=1.0),
        dict(threshold_s=0.0),
        dict(short_window_s=0.0),
        dict(short_window_s=2e-6),  # short > long
        dict(burn_threshold=0.0),
    ])
    def test_invalid_specs_raise(self, bad):
        with pytest.raises(ValueError):
            latency_spec(**bad)

    def test_budget(self):
        assert latency_spec(objective=0.99).budget == pytest.approx(0.01)


class TestEngine:
    def test_duplicate_names_raise(self):
        spec = latency_spec()
        with pytest.raises(ValueError, match="duplicate"):
            SLOEngine((spec, spec))

    def test_latency_spec_ignores_sheds(self):
        engine = SLOEngine((latency_spec(),))
        engine.observe(0.0, outcome="rejected")
        engine.observe(0.0, outcome="expired")
        assert len(engine.states["lat"].series) == 0

    def test_miss_spec_judges_all_outcomes(self):
        engine = SLOEngine((SLOSpec(name="m", kind="miss", objective=0.5),))
        engine.observe(0.0, outcome="done", latency_s=1e-9)
        engine.observe(0.0, outcome="rejected")
        state = engine.states["m"]
        assert len(state.series) == 2
        assert state.bad_total == 1

    def test_alert_fires_and_recovers(self):
        # objective 0.9 -> budget 0.1; all-bad burn = 10 > threshold 2.
        engine = SLOEngine((latency_spec(),))
        changes = engine.observe(1e-8, outcome="done", latency_s=5e-7)
        assert changes == [("lat", True)]
        assert engine.any_alerting
        assert engine.states["lat"].alerts == 1
        # Enough in-budget observations inside both windows recover it.
        t = 2e-8
        while engine.any_alerting:
            t += 1e-9
            changes = engine.observe(t, outcome="done", latency_s=1e-9)
        assert changes == [("lat", False)]
        assert engine.states["lat"].alerts == 1  # recovery is not a new alert

    def test_no_alert_without_short_window_evidence(self):
        # Bad history outside the short window must not keep alerting.
        engine = SLOEngine((latency_spec(),))
        engine.observe(0.0, outcome="done", latency_s=5e-7)
        state = engine.states["lat"]
        # Re-evaluate far in the future: long window empty too -> ok.
        assert engine._evaluate(state, now=1.0) == [("lat", False)]

    def test_section_shape(self):
        engine = SLOEngine((latency_spec(),))
        engine.observe(1e-8, outcome="done", latency_s=5e-7)
        section = engine.section(1e-8)
        snap = section["lat"]
        assert snap["alerting"] == 1.0
        assert snap["alerts"] == 1.0
        assert snap["bad"] == 1.0
        assert snap["burn_long"] == pytest.approx(10.0)
        assert all(isinstance(v, float) for v in snap.values())


class TestEventLog:
    def test_lines_are_canonical_json(self):
        log = EventLog()
        log.emit(1e-8, "admit", qid=0, src=3)
        log.emit(2e-8, "done", qid=0)
        assert len(log) == 2
        first = json.loads(log.lines[0])
        assert first == {"kind": "admit", "seq": 0, "t": 1e-8,
                         "qid": 0, "src": 3}
        # Keys sorted, no spaces: byte-canonical.
        assert log.lines[0] == json.dumps(
            first, sort_keys=True, separators=(",", ":")
        )
        assert json.loads(log.lines[1])["seq"] == 1

    def test_write_through_and_parse(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        with EventLog(str(path)) as log:
            log.emit(0.0, "epoch", epoch="abc")
        events = EventLog.parse(path.read_text())
        assert events == [{"kind": "epoch", "seq": 0, "t": 0.0,
                           "epoch": "abc"}]

    def test_rotation(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        log = EventLog(str(path), max_bytes=1024)
        for i in range(40):
            log.emit(float(i), "pad", filler="x" * 64)
        log.close()
        assert log.rotations >= 1
        assert (tmp_path / "ev.jsonl.1").exists()
        # Disk keeps the newest generations (bounded footprint); the
        # tail of the stream is always in the live file.
        on_disk = EventLog.parse(
            (tmp_path / "ev.jsonl.1").read_text() + path.read_text()
        )
        assert on_disk[-1]["seq"] == 39
        assert [e["seq"] for e in on_disk] == sorted(
            e["seq"] for e in on_disk
        )
        assert len(log.lines) == 40  # in-memory history is unrotated

    def test_max_bytes_floor(self):
        with pytest.raises(ValueError, match="max_bytes"):
            EventLog(max_bytes=10)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="not JSON"):
            EventLog.parse("{broken\n")
        with pytest.raises(ValueError, match="not an event"):
            EventLog.parse('{"no_kind": 1}\n')
