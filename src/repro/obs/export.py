"""Perfetto/chrome-trace export: nested spans and counter tracks.

Extends the flat kernel timeline of :mod:`repro.gpusim.trace` with the
two things a flat trace cannot show:

* the **span hierarchy** (run -> algorithm -> level, serve waves) as
  nested complete events on a dedicated track, so one can click a slow
  level and see its driver facts (frontier size, edges expanded) above
  the launches it spans on the kernel track, where each launch appears
  once with its cost in ``args``;
* **counter tracks** sampled over simulated time — frontier size,
  cumulative bytes moved, decoded-list-cache hit rate — the continuous
  signals behind the paper's per-level plots.

Everything is keyed to the simulated clock (microsecond ``ts`` like an
``nsys`` export), so traces from identical runs are identical files.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.gpusim.engine import SimEngine

__all__ = [
    "KERNEL_PID",
    "SPAN_PID",
    "CRITPATH_PID",
    "span_events",
    "counter_events",
    "critpath_events",
    "write_perfetto_trace",
]

#: Process id of the flat per-kernel timeline (one track per kernel name).
KERNEL_PID = 0

#: Process id of the nested span hierarchy (single track, events nest
#: by time containment, exactly how Perfetto renders call stacks).
SPAN_PID = 1

#: Process id of the critical-path view: on-path segments on track 0,
#: off-path (hidden-under-overlap) segments dimmed on track 1.
CRITPATH_PID = 2


def _jsonable(value):
    """Coerce numpy scalars/arrays and other oddballs to JSON types."""
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    if hasattr(value, "tolist"):  # numpy array
        return value.tolist()
    return str(value)


def span_events(engine: "SimEngine") -> list[dict]:
    """Nested complete events for the whole span tree.

    Spans still open at export time (the root "run" span) are closed at
    the engine's current simulated time.  All spans share one track;
    Perfetto nests same-track events by interval containment, which the
    hierarchical timestamps guarantee.
    """
    root = engine.tracer.root
    if root is None:
        return []
    now = engine.elapsed_seconds
    events: list[dict] = []
    for depth, span in root.walk():
        end = span.end_s if span.end_s is not None else now
        args = {k: _jsonable(v) for k, v in sorted(span.attrs.items())}
        args["kind"] = span.kind
        args["depth"] = depth
        events.append(
            {
                "name": span.name,
                "cat": span.kind,
                "ph": "X",
                "ts": span.start_s * 1e6,
                "dur": (end - span.start_s) * 1e6,
                "pid": SPAN_PID,
                "tid": 0,
                "args": args,
            }
        )
    return events


def counter_events(engine: "SimEngine") -> list[dict]:
    """Counter-track events: explicit samples plus derived byte totals.

    * every series recorded via :meth:`SimEngine.sample` (frontier
      size, cache hit rate, ...) becomes its own counter track;
    * ``cumulative_bytes`` is derived from the launch records — total
      device+host bytes moved, sampled at each launch completion — so
      any run with at least one launch gets at least one counter track;
    * one ``bytes:<array>`` track per attributed array (cumulative
      moved bytes, sampled when a launch touched that array) — the
      per-data-structure traffic curves behind the paper's Fig. 1
      regions.
    """
    events: list[dict] = []

    def emit(name: str, t_s: float, value: float) -> None:
        events.append(
            {
                "name": name,
                "ph": "C",
                "ts": t_s * 1e6,
                "pid": KERNEL_PID,
                "tid": 0,
                "args": {"value": _jsonable(value)},
            }
        )

    for name, series in sorted(engine.series.items()):
        for t_s, value in series:
            emit(name, t_s, value)
    cumulative = 0.0
    per_array: dict[str, float] = {}
    for record in engine.records:
        cumulative += record.cost.device_bytes + record.cost.host_bytes
        end = record.start_s + record.seconds
        emit("cumulative_bytes", end, cumulative)
        for array in sorted(record.cost.traffic):
            traffic = record.cost.traffic[array]
            total = per_array.get(array, 0.0) + traffic.moved_bytes
            per_array[array] = total
            emit(f"bytes:{array}", end, total)
    return events


def critpath_events(path) -> list[dict]:
    """Critical-path highlight events from an extracted path.

    ``path`` is a :class:`repro.obs.critpath.CriticalPath`.  On-path
    segments render on their own track; segments hidden under overlap
    land on a second, grey-dimmed track with their slack in the args —
    the at-a-glance "where would an optimisation actually move the
    finish line" view next to the raw timeline.
    """
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": CRITPATH_PID,
            "tid": 0,
            "args": {"name": "critical path"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": CRITPATH_PID,
            "tid": 0,
            "args": {"name": "on path"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": CRITPATH_PID,
            "tid": 1,
            "args": {"name": "off path (hidden by overlap)"},
        },
    ]
    for seg in path.segments:
        event = {
            "name": f"{seg.phase}:{seg.level_name}" if seg.level_name
            else seg.phase,
            "cat": "critpath",
            "ph": "X",
            "ts": seg.start_s * 1e6,
            "dur": seg.seconds * 1e6,
            "pid": CRITPATH_PID,
            "tid": 0 if seg.on_path else 1,
            "args": {
                "phase": seg.phase,
                "level": seg.level,
                "kernel": seg.kernel,
                "array": seg.array,
                "tier": seg.tier,
                "on_path": seg.on_path,
                "slack_us": seg.slack_seconds * 1e6,
            },
        }
        if not seg.on_path:
            event["cname"] = "grey"
        events.append(event)
    return events


def write_perfetto_trace(engine: "SimEngine", path: str) -> None:
    """Write the full trace: kernel tracks + span hierarchy + counters
    + the critical-path highlight track."""
    from repro.gpusim.trace import timeline_events
    from repro.obs.critpath import extract_critical_path

    payload = {
        "traceEvents": (
            timeline_events(engine, pid=KERNEL_PID)
            + span_events(engine)
            + counter_events(engine)
            + critpath_events(extract_critical_path(engine))
        ),
        "displayTimeUnit": "ms",
        "metadata": {"device": engine.device.name, "exporter": "repro.obs"},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
