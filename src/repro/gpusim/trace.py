"""Chrome-trace events of a simulation timeline.

``chrome://tracing`` / Perfetto accept a simple JSON event format;
:func:`timeline_events` turns a :class:`~repro.gpusim.engine.SimEngine`
timeline into its flat per-kernel events, so a simulated traversal can
be inspected kernel-by-kernel the way one would inspect an ``nsys``
capture of the real implementation.  :func:`repro.obs.export.
write_perfetto_trace` composes them with the nested ``run -> algorithm
-> level -> kernel`` spans and the counter tracks into one file.
"""

from __future__ import annotations

from repro.gpusim.engine import SimEngine

__all__ = ["timeline_events"]


def timeline_events(engine: SimEngine, pid: int = 0) -> list[dict]:
    """Complete-event ('X') records for every kernel launch, in order.

    Timestamps are simulated microseconds taken from each launch's
    *recorded* start time (never re-accumulated from durations, so
    traces stay correct if launches ever overlap); kernels of the same
    name share a Perfetto track via their thread id.
    """
    events: list[dict] = []
    tids: dict[str, int] = {}
    for record in engine.records:
        tid = tids.setdefault(record.name, len(tids))
        events.append(
            {
                "name": record.name,
                "ph": "X",
                "ts": record.start_s * 1e6,
                "dur": record.seconds * 1e6,
                "pid": pid,
                "tid": tid,
            }
        )
    return events
