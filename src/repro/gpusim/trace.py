"""Chrome-trace events of a simulation timeline.

``chrome://tracing`` / Perfetto accept a simple JSON event format;
:func:`timeline_events` turns a :class:`~repro.gpusim.engine.SimEngine`
timeline into its flat per-kernel events, so a simulated traversal can
be inspected kernel-by-kernel the way one would inspect an ``nsys``
capture of the real implementation.  Each launch appears exactly once,
here, with its recorded cost in the event's ``args``.
:func:`repro.obs.export.write_perfetto_trace` composes them with the
nested ``run -> algorithm -> level`` spans and the counter tracks into
one file.
"""

from __future__ import annotations

from repro.gpusim.engine import SimEngine

__all__ = ["timeline_events"]


def timeline_events(engine: SimEngine, pid: int = 0) -> list[dict]:
    """Complete-event ('X') records for every kernel launch, in order.

    Timestamps are simulated microseconds taken from each launch's
    *recorded* start time (never re-accumulated from durations, so
    traces stay correct if launches ever overlap); kernels of the same
    name share a Perfetto track via their thread id.  ``args`` carry the
    launch's ``seconds``, byte columns, ``instructions`` and per-array
    ``breakdown`` (moved bytes).
    """
    events: list[dict] = []
    tids: dict[str, int] = {}
    for record in engine.records:
        tid = tids.setdefault(record.name, len(tids))
        cost = record.cost
        events.append(
            {
                "name": record.name,
                "ph": "X",
                "ts": record.start_s * 1e6,
                "dur": record.seconds * 1e6,
                "pid": pid,
                "tid": tid,
                "args": {
                    "seconds": record.seconds,
                    "device_bytes": cost.device_bytes,
                    "host_bytes": cost.host_bytes,
                    "cached_bytes": cost.cached_bytes,
                    "instructions": cost.instructions,
                    "breakdown": {
                        array: float(nbytes)
                        for array, nbytes in cost.breakdown.items()
                    },
                },
            }
        )
    return events
