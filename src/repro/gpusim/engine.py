"""Simulation engine: device + memory plan + accumulated timeline.

One :class:`SimEngine` drives one analytics run.  Traversal code opens
kernels with :meth:`launch`; on close, the kernel's simulated duration
is appended to the timeline as a :class:`LaunchRecord`.
``elapsed_seconds`` is a running total maintained per launch
(level-synchronous algorithms serialize their kernels), and
``kernel_summary`` aggregates by kernel name for profiling-style
reports — mirroring how one reads an ``nvprof`` trace.

The records are the run's one cost ledger.  The engine is also the root
of the telemetry layer (:mod:`repro.obs`): every engine carries a
:class:`~repro.obs.spans.Tracer` building the ``run -> algorithm ->
level`` span hierarchy and a :class:`~repro.obs.metrics.
MetricsRegistry` of counters/gauges/histograms.  Spans hold structure
and driver facts only; each record names its enclosing level by
ordinal, and every per-level cost view sums that level's records.
:meth:`algorithm` and :meth:`level` own a driver's run and level
lifecycle, so a driver is its state plus its kernel bodies.
:meth:`sample` records named time series (frontier size, cache hit
rate) that the Perfetto exporter turns into counter tracks.  All of it
keys off the simulated clock, so identical runs produce identical
telemetry.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.gpusim.cost import CostModel, CostParams, KernelCost
from repro.gpusim.device import DeviceSpec
from repro.gpusim.kernel import KernelLaunch
from repro.gpusim.memory import MemoryManager
from repro.obs.metrics import MetricsRegistry, bytes_per_edge
from repro.obs.roofline import fit_name
from repro.obs.spans import Span, Tracer

__all__ = ["AlgorithmRun", "LaunchRecord", "SimEngine"]


@dataclass(frozen=True)
class LaunchRecord:
    """One completed kernel launch on the timeline.

    ``start_s`` is the simulated time the launch began.  Today kernels
    are strictly sequential, so starts happen to be cumulative — but
    exporters must use the recorded value, never re-accumulate
    durations, so future overlap/async execution cannot silently
    corrupt traces.  ``level`` is the ordinal of the enclosing ``level``
    span in the run's span tree (pre-order, which is opening order), or
    -1 for a launch outside any level.
    """

    name: str
    start_s: float
    seconds: float
    cost: KernelCost
    level: int = -1


@dataclass
class AlgorithmRun:
    """What a driver reports back to :meth:`SimEngine.algorithm`."""

    #: Edges traversed so far; the ``bytes_per_edge`` gauge divides by it.
    edges: int = 0


@dataclass
class SimEngine:
    """Deterministic simulated-time accumulator for one device run."""

    device: DeviceSpec
    memory: MemoryManager
    params: CostParams = field(default_factory=CostParams)
    tracer: Tracer = field(default_factory=Tracer)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    _records: list[LaunchRecord] = field(default_factory=list)
    _elapsed: float = 0.0
    _level: int = -1
    _num_levels: int = 0
    _series: dict[str, list[tuple[float, float]]] = field(default_factory=dict)

    @classmethod
    def for_device(
        cls,
        device: DeviceSpec,
        params: CostParams | None = None,
    ) -> "SimEngine":
        """Convenience constructor wiring a fresh memory manager."""
        memory = MemoryManager(capacity_bytes=device.memory_bytes)
        return cls(device=device, memory=memory, params=params or CostParams())

    @property
    def model(self) -> CostModel:
        """Cost model bound to this engine's device and memory plan."""
        return CostModel(device=self.device, memory=self.memory, params=self.params)

    @contextmanager
    def launch(self, name: str) -> Iterator[KernelLaunch]:
        """Open a kernel launch; its cost lands on the timeline at exit."""
        start = self._elapsed
        kernel = KernelLaunch(name=name, model=self.model)
        yield kernel
        seconds = self.model.kernel_seconds(kernel.cost)
        # Snapshot the cost so the caller's live record stays untouched
        # by later mutation; the record is the single source of truth
        # for summaries and exporters.
        snapshot = kernel.cost.snapshot()
        self._records.append(
            LaunchRecord(name, start, seconds, snapshot, self._level)
        )
        self._elapsed += seconds

    @contextmanager
    def span(self, name: str, kind: str = "phase", **attrs) -> Iterator[Span]:
        """Open a named span over simulated time (algorithm, level, ...).

        Yields the :class:`~repro.obs.spans.Span` so the caller can
        :meth:`~repro.obs.spans.Span.annotate` it with whatever it
        learns mid-level (edges expanded, direction decision, ...).  A
        ``level`` span numbers the launches inside it (``LaunchRecord.
        level``).
        """
        span = self.tracer.open(name, kind, self._elapsed, attrs)
        outer = self._level
        if kind == "level":
            self._level = self._num_levels
            self._num_levels += 1
        try:
            yield span
        finally:
            self._level = outer
            self.tracer.close(self._elapsed)

    @contextmanager
    def algorithm(
        self, name: str, *, gauge: str | None = None, **attrs
    ) -> Iterator[AlgorithmRun]:
        """One driver run: the ``algorithm`` span and its edge tally.

        The driver adds its traversed edges to the yielded
        :class:`AlgorithmRun`; on exit ``<gauge>.bytes_per_edge`` is set
        from them (no gauge when ``gauge`` is ``None``).

        A run is checked when it ends: on a normal exit the byte
        attribution (:func:`~repro.obs.counters.verify_attribution`)
        and the critical path (:func:`~repro.obs.critpath.
        verify_critpath`) of the whole timeline must hold, or this
        raises ``AssertionError`` (under ``python -O`` too).  A run that
        raises is not checked; its exception propagates unchanged.
        """
        self.tracer.open(name, "algorithm", self._elapsed, attrs)
        run = AlgorithmRun()
        try:
            yield run
            if gauge is not None:
                self.metrics.set_gauge(
                    f"{gauge}.bytes_per_edge", bytes_per_edge(self, run.edges)
                )
        finally:
            self.tracer.close(self._elapsed)
        from repro.obs.counters import verify_attribution
        from repro.obs.critpath import extract_critical_path, verify_critpath

        verify_attribution(self)
        verify_critpath(extract_critical_path(self))

    @contextmanager
    def level(
        self,
        name: str,
        level: int,
        *,
        frontier: int | None = None,
        histogram: str = "",
        **attrs,
    ) -> Iterator[Span]:
        """One level of the level-synchronous loop (Alg. 1).

        A ``frontier`` size is observed in the ``histogram`` metric,
        sampled as the ``frontier_size`` series and recorded on the
        span.
        """
        if frontier is not None:
            self.metrics.observe(histogram, frontier)
            self.sample("frontier_size", frontier)
            attrs = {"frontier_size": int(frontier), **attrs}
        with self.span(name, "level", level=level, **attrs) as sp:
            yield sp

    @property
    def elapsed_seconds(self) -> float:
        """Total simulated time across all launches so far (O(1))."""
        return self._elapsed

    @property
    def num_launches(self) -> int:
        """Number of kernel launches recorded."""
        return len(self._records)

    @property
    def records(self) -> list[LaunchRecord]:
        """The launch timeline, in completion order (read-only use)."""
        return self._records

    @property
    def series(self) -> dict[str, list[tuple[float, float]]]:
        """Named ``(sim_time, value)`` series recorded via :meth:`sample`."""
        return self._series

    def reset_timeline(self) -> None:
        """Clear timing state for a new traversal run.

        The persistent arrays stay registered; the run's driver installs
        its own working set (:meth:`~repro.gpusim.memory.MemoryManager.
        working`), replacing the previous run's.  Telemetry — spans,
        metrics, series — belongs to one run and is reset along with
        the timeline.
        """
        self._records.clear()
        self._elapsed = 0.0
        self._level = -1
        self._num_levels = 0
        self._series.clear()
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()

    # -- named counters and series (cache hits, frontier sizes, ...) -----

    @property
    def counters(self) -> dict[str, float]:
        """Named event counters accumulated during this run (a copy)."""
        return dict(self.metrics.counters)

    def sample(self, name: str, value: float) -> None:
        """Record one point of a named time series at the current time.

        Series become Perfetto counter tracks (frontier size over the
        run, cache hit rate, ...); the timestamp is the simulated clock.
        """
        self._series.setdefault(name, []).append(
            (self._elapsed, float(value))
        )

    def kernel_summary(self) -> dict[str, dict[str, float]]:
        """Aggregate traffic/instructions/time by kernel name."""
        out: dict[str, dict[str, float]] = {}
        for rec in self._records:
            row = out.setdefault(
                rec.name,
                {
                    "launches": 0.0,
                    "device_bytes": 0.0,
                    "host_bytes": 0.0,
                    "cached_bytes": 0.0,
                    "instructions": 0.0,
                    "floor_seconds": 0.0,
                    "seconds": 0.0,
                    "active_lanes": 0.0,
                    "lane_slots": 0.0,
                },
            )
            row["launches"] += rec.cost.launches
            # The three byte columns are disjoint by construction:
            # charge/charge_stream land in device_bytes or host_bytes by
            # residency, charge_cached only in cached_bytes — a cached
            # read never re-counts as DRAM traffic.
            row["device_bytes"] += rec.cost.device_bytes
            row["host_bytes"] += rec.cost.host_bytes
            row["cached_bytes"] += rec.cost.cached_bytes
            row["instructions"] += rec.cost.instructions
            row["floor_seconds"] += rec.cost.floor_seconds
            row["seconds"] += rec.seconds
            row["active_lanes"] += rec.cost.active_lanes
            row["lane_slots"] += rec.cost.lane_slots
        return out

    def profile_report(self) -> str:
        """nvprof-style text table of where simulated time went.

        The three byte columns are disjoint: DRAM and PCIe bytes come
        from residency-charged accesses, ``cache MB`` only from
        :meth:`KernelLaunch.cached_read` hits — a byte appears in
        exactly one column.
        """
        summary = self.kernel_summary()
        total = self.elapsed_seconds or 1.0
        lines = [
            f"{'kernel':32s} {'time(ms)':>10s} {'%':>6s} {'launches':>9s} "
            f"{'dram MB':>9s} {'pcie MB':>9s} {'cache MB':>9s}"
        ]
        for name, row in sorted(
            summary.items(), key=lambda kv: -kv[1]["seconds"]
        ):
            lines.append(
                f"{fit_name(name, 32)} {row['seconds'] * 1e3:10.3f} "
                f"{100 * row['seconds'] / total:6.1f} {int(row['launches']):9d} "
                f"{row['device_bytes'] / 1e6:9.3f} "
                f"{row['host_bytes'] / 1e6:9.3f} "
                f"{row['cached_bytes'] / 1e6:9.3f}"
            )
        counters = self.metrics.counters
        if counters:
            lines.append(f"{'counter':32s} {'value':>18s}")
            for name in sorted(counters):
                lines.append(f"{fit_name(name, 32)} {counters[name]:18,.0f}")
        from repro.obs.critpath import (
            critpath_report_line,
            extract_critical_path,
        )

        lines.append(critpath_report_line(extract_critical_path(self)))
        return "\n".join(lines)
