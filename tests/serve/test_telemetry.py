"""Service telemetry: determinism, sketch accuracy, report and section.

Two identical drives dump byte-identical ``service`` sections, and
sketch percentiles agree with exact numpy order statistics within the
documented bound on a 1000-query drive.
"""

from __future__ import annotations

import json

import numpy as np

from repro.serve import (
    GraphService,
    drive,
    make_labeled_stream,
    serve_report,
)
from repro.serve.telemetry import SKETCH_ACCURACY

MIX = (None, 0.5e-3, None, 1e-9)  # patient, 0.5ms, patient, 1ns


def _drive_once(graph, *, queries=120, burst=48, **service_kw):
    service = GraphService.from_graph(
        graph, fmt="efg", cache_kb=256, **service_kw
    )
    sources, classes = make_labeled_stream(
        graph.num_nodes, queries, hot_fraction=0.5, seed=11
    )
    drive(service, sources, deadline_mix=MIX, burst=burst, classes=classes)
    return service


class TestDeterminism:
    def test_two_drives_byte_identical(self, small_graph):
        sections = [
            json.dumps(_drive_once(small_graph).service_section(),
                       sort_keys=True)
            for _ in range(2)
        ]
        assert sections[0] == sections[1]

    def test_sketch_dumps_byte_identical(self, small_graph):
        a = _drive_once(small_graph).telemetry
        b = _drive_once(small_graph).telemetry
        for name in ("latency", "queue_wait", "wave_lanes"):
            sa, sb = getattr(a, name), getattr(b, name)
            assert sa.summary() == sb.summary()


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
            "by_class", "rates",
        }
        assert set(section["by_class"]) == {"hot", "cold"}
        assert section["rates"]["hit_rate"] > 0  # hot set repeats
