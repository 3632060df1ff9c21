"""Observability: spans, metrics, roofline analysis, run comparison.

The telemetry layer of the simulator.  :mod:`repro.obs.spans` and
:mod:`repro.obs.metrics` are dependency-free building blocks consumed
by :class:`~repro.gpusim.engine.SimEngine` (every engine carries a
tracer and a metrics registry); the analysis and export layers sit on
top:

* :mod:`repro.obs.counters` — emulated hardware counters (sectors,
  coalescing and warp efficiency) and the per-kernel x per-array
  traffic attribution tables;
* :mod:`repro.obs.roofline` — per-kernel / per-level achieved-vs-peak
  bandwidth and the memory/pcie/compute/latency bound labels, refined
  with the array responsible for the binding term;
* :mod:`repro.obs.export` — Perfetto traces with nested spans and
  counter tracks (one per attributed array);
* :mod:`repro.obs.compare` — diff two metrics dumps, gate regressions.

Serving statistics are not kept here: :mod:`repro.serve.telemetry`
computes them exactly from the service's recorded query results.

Only the building blocks are re-exported here: the heavier layers
import the engine and are loaded as submodules on demand, keeping the
``engine -> obs`` import edge acyclic.
"""

from repro.obs.metrics import (
    METRICS_SCHEMA,
    SUPPORTED_SCHEMAS,
    Histogram,
    MetricsRegistry,
    git_sha,
)
from repro.obs.spans import Span, Tracer

__all__ = [
    "METRICS_SCHEMA",
    "SUPPORTED_SCHEMAS",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "git_sha",
]
