"""Tests for the span tracer and its engine integration."""

import pytest

from repro.gpusim.device import TITAN_XP
from repro.gpusim.engine import SimEngine
from repro.obs.roofline import level_rooflines
from repro.obs.spans import Tracer


@pytest.fixture
def engine():
    eng = SimEngine.for_device(TITAN_XP)
    eng.memory.register("arr", 1000)
    return eng


class TestTracer:
    def test_auto_root(self):
        tr = Tracer()
        tr.open("bfs", "algorithm", 0.0)
        assert tr.root is not None
        assert tr.root.kind == "run"
        assert tr.root.children[0].name == "bfs"

    def test_nesting_follows_stack(self):
        tr = Tracer()
        tr.open("algo", "algorithm", 0.0)
        tr.open("level:0", "level", 0.0)
        tr.open("k", "kernel", 0.0)
        tr.close(1.0)
        tr.close(1.0)
        tr.close(2.0)
        algo = tr.root.children[0]
        assert algo.children[0].name == "level:0"
        assert algo.children[0].children[0].kind == "kernel"

    def test_close_without_open_raises(self):
        with pytest.raises(RuntimeError):
            Tracer().close(0.0)

    def test_sibling_spans(self):
        tr = Tracer()
        tr.open("a", "algorithm", 0.0)
        tr.close(1.0)
        tr.open("b", "algorithm", 1.0)
        tr.close(2.0)
        assert [s.name for s in tr.root.children] == ["a", "b"]

    def test_to_dict_round_trips_attrs(self):
        tr = Tracer()
        span = tr.open("a", "algorithm", 0.0, {"x": 1})
        span.annotate(y=2)
        tr.close(1.0)
        d = tr.to_dict()
        assert d["children"][0]["attrs"] == {"x": 1, "y": 2}


class TestEngineSpans:
    def test_launch_records_cost_without_a_span(self, engine):
        with engine.launch("k") as k:
            k.read("arr", 100, 4)
        assert engine.tracer.root is None
        (record,) = engine.records
        assert record.cost.device_bytes == 400.0
        assert record.seconds == engine.elapsed_seconds
        assert record.level == -1

    def test_hierarchy_run_algo_level_kernel(self, engine):
        with engine.span("bfs", "algorithm"):
            with engine.span("level:0", "level", level=0):
                with engine.launch("expand") as k:
                    k.read("arr", 10, 4)
            with engine.launch("tail"):
                pass
        root = engine.tracer.root
        assert root.kind == "run"
        algo = root.children[0]
        level = algo.children[0]
        assert (algo.kind, level.kind, level.children) == (
            "algorithm", "level", [],
        )
        # A launch names its enclosing level by ordinal, -1 outside one.
        assert [(r.name, r.level) for r in engine.records] == [
            ("expand", 0), ("tail", -1),
        ]

    def test_children_contained_in_parent_interval(self, engine):
        with engine.span("algo", "algorithm"):
            with engine.span("level:0", "level"):
                with engine.launch("a") as k:
                    k.instructions(1e6)
                with engine.launch("b") as k:
                    k.instructions(1e6)
        now = engine.elapsed_seconds
        for _, span in engine.tracer.root.walk():
            end = span.end_s if span.end_s is not None else now
            for child in span.children:
                assert child.start_s >= span.start_s
                assert child.end_s <= end

    def test_span_closed_on_exception(self, engine):
        with pytest.raises(ValueError):
            with engine.level("level:0", 0):
                with engine.launch("k") as k:
                    k.instructions(-1)
        assert engine.tracer.current is None
        assert engine.records == []
        with engine.launch("after"):
            pass
        assert engine.records[0].level == -1

    def test_reset_timeline_resets_tracer(self, engine):
        with engine.level("level:0", 0):
            with engine.launch("k"):
                pass
        engine.reset_timeline()
        assert engine.tracer.root is None
        with engine.level("level:0", 0):
            with engine.launch("k"):
                pass
        assert engine.records[0].level == 0


class TestAggregate:
    """A level's cost is the sum of the launch records that name it."""

    def test_aggregates_kernel_attrs(self, engine):
        with engine.span("algo", "algorithm"):
            with engine.span("level:0", "level"):
                with engine.launch("a") as k:
                    k.read("arr", 100, 4)
                with engine.launch("b") as k:
                    k.read("arr", 50, 4)
            with engine.span("level:1", "level"):
                with engine.launch("c") as k:
                    k.read("arr", 10, 4)
        first, second = level_rooflines(engine)
        assert first.device_bytes == 600.0
        assert first.launches == 2
        a, b, c = engine.records
        assert first.seconds == a.seconds + b.seconds
        assert (second.launches, second.device_bytes) == (1, 40.0)
        assert first.top_array == second.top_array == "arr"

    def test_empty_span(self, engine):
        with engine.span("algo", "algorithm"):
            with engine.span("level:0", "level"):
                pass
        (row,) = level_rooflines(engine)
        assert (row.launches, row.seconds, row.top_array) == (0, 0.0, "")
