"""Service-side telemetry: quantile sketches and windowed throughput.

:class:`ServiceTelemetry` is the per-service instrument cluster.  The
:class:`~repro.serve.service.GraphService` calls one hook per terminal
outcome (reject, cache hit, expire, done) and one per wave, and this
module feeds:

* **quantile sketches** (:mod:`repro.obs.sketch`) for per-query
  latency, queue wait, and wave width distributions;
* a **ring-buffer time-series** (:mod:`repro.obs.timeseries`) of
  completions, for the windowed QPS on the simulated clock;
* outcome counts, overall and per source class.

The cluster is deliberately *separate* from the engine's
:class:`~repro.obs.metrics.MetricsRegistry`: the registry feeds the
byte-stable bench trajectory, while telemetry feeds the ``service``
metrics section and :func:`~repro.serve.report.serve_report`.

Everything is keyed on the simulated clock, so two identical drives
produce byte-identical sketches and sections.
"""

from __future__ import annotations

from repro.obs.sketch import QuantileSketch
from repro.obs.timeseries import TimeSeries

__all__ = ["ServiceTelemetry"]

#: Relative accuracy of every service sketch (documented bound: each
#: reported percentile is within 1% of the exact order statistic).
SKETCH_ACCURACY = 0.01

#: Window of the ``windowed_qps`` rollup (simulated seconds; sim runs
#: at device scale live in the microsecond range).
WINDOW_S = 1e-6


class ServiceTelemetry:
    """Instrument cluster for one :class:`GraphService` lifetime."""

    def __init__(self) -> None:
        self.latency = QuantileSketch(SKETCH_ACCURACY)
        self.queue_wait = QuantileSketch(SKETCH_ACCURACY)
        self.wave_lanes = QuantileSketch(SKETCH_ACCURACY)
        #: One point per served query at its completion time.
        self.completions = TimeSeries(capacity=8192)
        #: outcome -> count and (source_class, outcome) -> count.
        self.outcomes: dict[str, int] = {}
        self.by_class: dict[tuple[str, str], int] = {}

    def _terminal(self, t: float, outcome: str, source_class: str) -> None:
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        key = (source_class, outcome)
        self.by_class[key] = self.by_class.get(key, 0) + 1
        if outcome in ("done", "cached"):
            self.completions.record(t, 1.0)

    # -- hooks (called by GraphService) -------------------------------

    def on_reject(self, t: float, source_class: str) -> None:
        self._terminal(t, "rejected", source_class)

    def on_cache_hit(self, t: float, source_class: str) -> None:
        self.latency.add(0.0)
        self.queue_wait.add(0.0)
        self._terminal(t, "cached", source_class)

    def on_expire(self, t: float, source_class: str) -> None:
        self._terminal(t, "expired", source_class)

    def on_wave(self, lanes: int) -> None:
        self.wave_lanes.add(float(lanes))

    def on_done(
        self, t: float, source_class: str, latency_s: float,
        queue_wait_s: float,
    ) -> None:
        self.latency.add(latency_s)
        self.queue_wait.add(queue_wait_s)
        self._terminal(t, "done", source_class)

    # -- derived views ------------------------------------------------

    @property
    def total(self) -> int:
        return sum(self.outcomes.values())

    @property
    def served(self) -> int:
        return self.outcomes.get("done", 0) + self.outcomes.get("cached", 0)

    @property
    def miss_rate(self) -> float:
        """Fraction of terminal outcomes shed (rejected or expired)."""
        if not self.total:
            return 0.0
        missed = (self.outcomes.get("rejected", 0)
                  + self.outcomes.get("expired", 0))
        return missed / self.total

    @property
    def hit_rate(self) -> float:
        """Result-LRU hits over served queries."""
        if not self.served:
            return 0.0
        return self.outcomes.get("cached", 0) / self.served

    def windowed_qps(self, now: float) -> float:
        """Served queries per simulated second over the last window."""
        return self.completions.stats(WINDOW_S, now=now)["rate"]

    def lane_occupancy(self) -> float:
        """Mean lanes per wave over the full run, as a fraction of 64."""
        from repro.traversal.msbfs import MAX_SOURCES

        if not self.wave_lanes.count:
            return 0.0
        return self.wave_lanes.mean / MAX_SOURCES

    # -- export -------------------------------------------------------

    def section(self, now: float) -> dict:
        """The ``service`` metrics section (numeric-only, diffable)."""
        by_class: dict[str, dict[str, float]] = {}
        for (cls, outcome), n in sorted(self.by_class.items()):
            by_class.setdefault(cls, {})[outcome] = float(n)
        return {
            "latency": self.latency.summary(),
            "queue_wait": self.queue_wait.summary(),
            "wave_lanes": self.wave_lanes.summary(),
            "outcomes": {k: float(v) for k, v in sorted(self.outcomes.items())},
            "by_class": by_class,
            "rates": {
                "miss_rate": self.miss_rate,
                "hit_rate": self.hit_rate,
                "lane_occupancy": self.lane_occupancy(),
                "windowed_qps": self.windowed_qps(now),
                "window_s": WINDOW_S,
            },
        }
