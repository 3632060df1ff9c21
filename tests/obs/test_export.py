"""Perfetto JSON schema round-trip tests for the trace exporter."""

import json

import pytest

from repro.formats.csr import CSRGraph
from repro.obs.export import (
    CRITPATH_PID,
    KERNEL_PID,
    SPAN_PID,
    counter_events,
    critpath_events,
    span_events,
    write_perfetto_trace,
)
from repro.traversal.backends import CSRBackend
from repro.traversal.bfs import bfs


@pytest.fixture
def traced_run(small_graph, scaled_device, tmp_path):
    backend = CSRBackend(CSRGraph.from_graph(small_graph), scaled_device)
    bfs(backend, 0)
    path = tmp_path / "trace.json"
    write_perfetto_trace(backend.engine, str(path))
    return backend.engine, json.loads(path.read_text())


class TestTraceSchema:
    def test_top_level_layout(self, traced_run):
        _, payload = traced_run
        assert "traceEvents" in payload
        assert payload["displayTimeUnit"] == "ms"
        assert payload["metadata"]["exporter"] == "repro.obs"

    def test_every_complete_event_well_formed(self, traced_run):
        _, payload = traced_run
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert complete
        for e in complete:
            for key in ("name", "ph", "ts", "dur", "pid", "tid"):
                assert key in e, f"missing {key}: {e}"
            assert e["ts"] >= 0
            assert e["dur"] >= 0

    def test_every_counter_event_well_formed(self, traced_run):
        _, payload = traced_run
        counters = [e for e in payload["traceEvents"] if e["ph"] == "C"]
        assert counters  # >= 1 counter track is an acceptance criterion
        for e in counters:
            for key in ("name", "ph", "ts", "pid", "tid"):
                assert key in e
            assert isinstance(e["args"]["value"], (int, float))
        names = {e["name"] for e in counters}
        assert "frontier_size" in names
        assert "cumulative_bytes" in names

    def test_only_x_c_and_metadata_phases(self, traced_run):
        _, payload = traced_run
        assert {e["ph"] for e in payload["traceEvents"]} == {"X", "C", "M"}

    def test_kernel_span_and_critpath_tracks_separated(self, traced_run):
        _, payload = traced_run
        pids = {e["pid"] for e in payload["traceEvents"] if e["ph"] == "X"}
        assert pids == {KERNEL_PID, SPAN_PID, CRITPATH_PID}

    def test_each_launch_once_on_kernel_track_with_its_cost(
        self, traced_run
    ):
        engine, payload = traced_run
        kernels = [
            e for e in payload["traceEvents"]
            if e["ph"] == "X" and e["pid"] == KERNEL_PID
        ]
        assert len(kernels) == engine.num_launches
        for event, record in zip(kernels, engine.records):
            args = event["args"]
            assert event["name"] == record.name
            assert args["seconds"] == record.seconds
            assert args["device_bytes"] == record.cost.device_bytes
            assert args["instructions"] == record.cost.instructions
            assert args["breakdown"] == record.cost.breakdown
        spans = [e for e in payload["traceEvents"] if e["pid"] == SPAN_PID]
        assert "kernel" not in {e["cat"] for e in spans}

    def test_metadata_names_only_on_critpath_track(self, traced_run):
        _, payload = traced_run
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert meta
        assert {e["pid"] for e in meta} == {CRITPATH_PID}


class TestSpanEvents:
    def test_span_kinds_cover_hierarchy(self, traced_run):
        engine, _ = traced_run
        kinds = {e["args"]["kind"] for e in span_events(engine)}
        assert kinds == {"run", "algorithm", "level"}

    def test_children_contained_in_parents(self, traced_run):
        engine, _ = traced_run
        events = span_events(engine)
        by_depth: dict[int, list] = {}
        for e in events:
            by_depth.setdefault(e["args"]["depth"], []).append(e)
        for depth, children in by_depth.items():
            if depth == 0:
                continue
            parents = by_depth[depth - 1]
            for c in children:
                assert any(
                    p["ts"] <= c["ts"] + 1e-9
                    and c["ts"] + c["dur"] <= p["ts"] + p["dur"] + 1e-9
                    for p in parents
                ), f"span {c['name']} not contained in any parent"

    def test_open_root_closed_at_elapsed(self, traced_run):
        engine, _ = traced_run
        (root,) = [e for e in span_events(engine) if e["args"]["kind"] == "run"]
        assert root["dur"] == pytest.approx(engine.elapsed_seconds * 1e6)

    def test_empty_engine_no_events(self, scaled_device):
        from repro.gpusim.engine import SimEngine

        engine = SimEngine.for_device(scaled_device)
        assert span_events(engine) == []
        assert counter_events(engine) == []

    def test_attrs_json_clean(self, traced_run):
        engine, _ = traced_run
        for e in span_events(engine):
            json.dumps(e)  # numpy leftovers would raise


class TestCounterEvents:
    def test_cumulative_bytes_monotonic(self, traced_run):
        engine, _ = traced_run
        values = [
            e["args"]["value"]
            for e in counter_events(engine)
            if e["name"] == "cumulative_bytes"
        ]
        assert values == sorted(values)
        assert len(values) == engine.num_launches

    def test_frontier_track_matches_levels(self, traced_run):
        engine, _ = traced_run
        frontier = [
            e for e in counter_events(engine) if e["name"] == "frontier_size"
        ]
        levels = [
            e for e in span_events(engine) if e["args"]["kind"] == "level"
        ]
        assert len(frontier) == len(levels)
        assert frontier[0]["args"]["value"] == 1  # source-only frontier


class TestCritpathEvents:
    def test_engine_path_all_on_path_track(self, traced_run):
        engine, _ = traced_run
        from repro.obs.critpath import extract_critical_path

        events = [
            e
            for e in critpath_events(extract_critical_path(engine))
            if e["ph"] == "X"
        ]
        assert events
        # Single-GPU timelines are fully serial: everything is on-path.
        assert {e["tid"] for e in events} == {0}
        assert all(e["args"]["on_path"] for e in events)

    def test_off_path_segments_dimmed(self, small_graph, scaled_device):
        from repro.dist.cluster import ShardedCluster
        from repro.dist.bfs import distributed_bfs
        from repro.obs.critpath import extract_cluster_critical_path

        cluster = ShardedCluster.build(
            small_graph, 2, scaled_device, overlap=True
        )
        distributed_bfs(cluster, 0)
        events = [
            e
            for e in critpath_events(
                extract_cluster_critical_path(cluster)
            )
            if e["ph"] == "X" and not e["args"]["on_path"]
        ]
        assert events  # overlap hides at least one phase somewhere
        for e in events:
            assert e["tid"] == 1
            assert e["cname"] == "grey"
            assert e["args"]["slack_us"] >= 0.0


class TestTraceDeterminism:
    def test_two_identical_runs_byte_identical_trace(
        self, small_graph, scaled_device, tmp_path
    ):
        """Track ids and event order are stable run-to-run: the same
        workload twice must export the exact same bytes."""
        paths = []
        for i in range(2):
            backend = CSRBackend(
                CSRGraph.from_graph(small_graph), scaled_device
            )
            bfs(backend, 0)
            path = tmp_path / f"trace_{i}.json"
            write_perfetto_trace(backend.engine, str(path))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
