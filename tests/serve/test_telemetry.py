"""Service telemetry: determinism, sketch accuracy, burn-rate alerts.

The ISSUE's acceptance criteria live here: two identical drives are
byte-identical (event logs and ``service`` sections), sketch
percentiles agree with exact numpy order statistics within the
documented bound on a 1000-query drive, and a forced overload fires an
SLO burn-rate alert deterministically.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.obs.slo import EventLog, SLOSpec
from repro.serve import (
    GraphService,
    ServiceTelemetry,
    drive,
    make_labeled_stream,
    serve_report,
)
from repro.serve.telemetry import SKETCH_ACCURACY

MIX = (None, 0.5e-3, None, 1e-9)  # patient, 0.5ms, patient, 1ns


def _drive_once(graph, *, specs=(), events=None, queries=120, burst=48,
                **service_kw):
    telemetry = ServiceTelemetry(
        specs=specs, events=events if events is not None else EventLog()
    )
    service = GraphService.from_graph(
        graph, fmt="efg", cache_kb=256, telemetry=telemetry, **service_kw
    )
    sources, classes = make_labeled_stream(
        graph.num_nodes, queries, hot_fraction=0.5, seed=11
    )
    drive(service, sources, deadline_mix=MIX, burst=burst, classes=classes)
    return service


class TestDeterminism:
    def test_two_drives_byte_identical(self, small_graph, tmp_path):
        logs = []
        sections = []
        for run in ("a", "b"):
            path = tmp_path / f"{run}" / "ev.jsonl"
            path.parent.mkdir()
            service = _drive_once(
                small_graph,
                specs=(SLOSpec(name="m", kind="miss", objective=0.95),),
                events=EventLog(str(path)),
            )
            service.telemetry.events.close()
            logs.append(path.read_bytes())
            sections.append(json.dumps(
                service.service_section(), sort_keys=True
            ))
        assert logs[0] == logs[1]
        assert len(logs[0]) > 0
        assert sections[0] == sections[1]

    def test_sketch_dumps_byte_identical(self, small_graph):
        a = _drive_once(small_graph).telemetry
        b = _drive_once(small_graph).telemetry
        assert a.latency.to_bytes() == b.latency.to_bytes()
        assert a.queue_wait.to_bytes() == b.queue_wait.to_bytes()
        assert a.wave_lanes.to_bytes() == b.wave_lanes.to_bytes()

    def test_event_log_labels(self, small_graph):
        service = _drive_once(small_graph)
        events = [json.loads(line)
                  for line in service.telemetry.events.lines]
        kinds = {e["kind"] for e in events}
        assert {"epoch", "admit", "wave", "done"} <= kinds
        classes = {e["cls"] for e in events if "cls" in e}
        assert classes == {"hot", "cold"}
        assert events[0]["kind"] == "epoch"
        assert events[0]["epoch"] == service.epoch


class TestSketchAccuracy:
    def test_1000_query_percentiles_match_numpy(self, small_graph):
        service = _drive_once(small_graph, queries=1000, burst=64)
        tel = service.telemetry
        # Exact per-query latencies from the recorded results.
        exact = np.array([
            r.completed_s - r.submitted_s
            for r in service.results if r.status in ("done", "cached")
        ])
        assert tel.latency.count == exact.shape[0] >= 900
        for q in (0.5, 0.95, 0.99):
            truth = float(np.quantile(exact, q, method="higher"))
            got = tel.latency.quantile(q)
            assert abs(got - truth) <= SKETCH_ACCURACY * truth * (1 + 1e-9)


class TestBurnRateAlert:
    def test_forced_overload_fires_deterministically(self, small_graph):
        # Impossible latency budget: every served query is "bad", so
        # the burn rate saturates both windows and the alert must fire.
        spec = SLOSpec(
            name="latency", kind="latency", objective=0.99,
            threshold_s=1e-10, burn_threshold=2.0,
        )
        service = _drive_once(small_graph, specs=(spec,))
        tel = service.telemetry
        assert tel.slo.any_alerting
        # Visible in the metrics section...
        snap = service.service_section()["slo"]["latency"]
        assert snap["alerts"] >= 1
        assert snap["alerting"] == 1.0
        assert snap["burn_long"] > spec.burn_threshold
        # ...and in the event log.
        alerting = [
            json.loads(line) for line in tel.events.lines
            if json.loads(line).get("kind") == "slo"
            and json.loads(line).get("state") == "alerting"
        ]
        assert alerting
        assert alerting[0]["slo"] == "latency"
        # Deterministic: same drive, same alert timeline.
        again = _drive_once(small_graph, specs=(spec,))
        assert again.telemetry.events.lines == tel.events.lines

    def test_healthy_run_stays_quiet(self, small_graph):
        spec = SLOSpec(
            name="latency", kind="latency", objective=0.99,
            threshold_s=1.0,  # a sim-second: everything is fast enough
        )
        service = _drive_once(small_graph, specs=(spec,))
        assert not service.telemetry.slo.any_alerting
        assert service.service_section()["slo"]["latency"]["alerts"] == 0


class TestServeReport:
    def test_lru_and_admission_counters_surface(self, small_graph):
        # Tiny LRU + tiny queue: forces evictions and rejects so every
        # counter in the report is exercised.
        service = _drive_once(
            small_graph, queries=300,
            result_cache_entries=8, max_pending=32,
        )
        report = serve_report(service)
        assert "result lru:" in report
        assert "evictions" in report
        assert "admission:" in report
        assert "queue bound 32" in report
        assert "(bound 8)" in report
        counters = service.backend.engine.metrics.counters
        assert counters.get("serve.cache.evictions", 0) > 0
        assert f"{int(counters['serve.cache.evictions'])} evictions" in report
        assert "throughput:" in report

    def test_slo_rows_in_report(self, small_graph):
        spec = SLOSpec(name="miss-rate", kind="miss", objective=0.95)
        report = serve_report(_drive_once(small_graph, specs=(spec,)))
        assert "slo miss-rate:" in report

    def test_report_deterministic(self, small_graph):
        assert serve_report(_drive_once(small_graph)) == serve_report(
            _drive_once(small_graph)
        )


class TestSectionShape:
    def test_service_section_numeric_only(self, small_graph):
        section = _drive_once(small_graph).service_section()

        def walk(node):
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            else:
                assert isinstance(node, float), node

        walk(section)
        assert set(section) == {
            "latency", "queue_wait", "wave_lanes", "outcomes",
            "by_class", "rates", "slo", "events",
        }
        assert section["rates"]["hit_rate"] > 0  # hot set repeats
