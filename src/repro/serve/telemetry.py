"""Service telemetry: a read-only view of a run's query results.

A :class:`~repro.serve.service.GraphService` records one
:class:`~repro.serve.service.QueryResult` per query — status, wave,
source class and its submit, start and completion times on the
simulated clock.  That list is the only record of a serve run;
:class:`ServiceTelemetry` computes every serving statistic from it:

* **latency** (``completed_s - submitted_s``) and **queue wait**
  (``started_s - submitted_s``) of each served query — a result-LRU
  hit completes at submit time, so both are 0 for it;
* **wave width**: the distinct sources among each wave's ``done``
  results (coalesced duplicates share a lane);
* outcome counts, overall and per source class, and the windowed QPS
  (served completions in the last :data:`WINDOW_S` simulated seconds).

Each distribution is a :class:`Samples` holding every value, so its
quantiles are exact order statistics.  The view is separate from the
engine's :class:`~repro.obs.metrics.MetricsRegistry`, which feeds the
byte-stable bench counters; telemetry feeds the ``service`` metrics
section and :func:`~repro.serve.report.serve_report`.  Everything is
keyed on the simulated clock, so two identical drives produce
byte-identical sections.
"""

from __future__ import annotations

import math

__all__ = ["Samples", "ServiceTelemetry"]

#: Window of the ``windowed_qps`` rollup (simulated seconds; sim runs
#: at device scale live in the microsecond range).
WINDOW_S = 1e-6


class Samples:
    """Every recorded value of one quantity, sorted; exact statistics."""

    __slots__ = ("values",)

    def __init__(self, values) -> None:
        self.values = sorted(float(v) for v in values)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def sum(self) -> float:
        """Correctly-rounded total, independent of recording order."""
        return math.fsum(self.values)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.values else 0.0

    @property
    def min(self) -> float:
        return self.values[0] if self.values else 0.0

    @property
    def max(self) -> float:
        return self.values[-1] if self.values else 0.0

    def quantile(self, q: float) -> float:
        """The order statistic at rank ``ceil(q * (n - 1))`` (0-indexed).

        The same element ``numpy.quantile(values, q, method="higher")``
        returns, so it always lies in ``[min, max]``.
        """
        if not (0.0 <= q <= 1.0):
            raise ValueError(f"q must be in [0, 1], got {q}")
        if not self.values:
            raise ValueError("quantile of an empty sample")
        return self.values[math.ceil(q * (len(self.values) - 1))]

    def summary(self, qs: tuple[float, ...] = (0.5, 0.95, 0.99)) -> dict:
        """Numeric-only summary for a metrics section (diffable)."""
        out = {
            "count": float(self.count),
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }
        for q in qs:
            out[f"p{q * 100:g}".replace(".", "_")] = (
                self.quantile(q) if self.values else 0.0
            )
        return out


class ServiceTelemetry:
    """Statistics over one service's results, as of simulated time ``now``."""

    def __init__(self, results, now: float) -> None:
        served = [r for r in results if r.ok]
        self.latency = Samples(r.completed_s - r.submitted_s for r in served)
        self.queue_wait = Samples(r.started_s - r.submitted_s for r in served)
        #: outcome -> count and (source_class, outcome) -> count.
        self.outcomes: dict[str, int] = {}
        self.by_class: dict[tuple[str, str], int] = {}
        waves: dict[int, set[int]] = {}
        for r in results:
            self.outcomes[r.status] = self.outcomes.get(r.status, 0) + 1
            key = (r.source_class, r.status)
            self.by_class[key] = self.by_class.get(key, 0) + 1
            if r.status == "done":
                waves.setdefault(r.wave, set()).add(r.source)
        self.wave_lanes = Samples(len(lanes) for lanes in waves.values())
        #: Served queries per simulated second over the last window,
        #: ``(now - WINDOW_S, now]``.
        self.windowed_qps = sum(
            now - WINDOW_S < r.completed_s <= now for r in served
        ) / WINDOW_S

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

    def lane_occupancy(self) -> float:
        """Mean lanes per wave over the full run, as a fraction of 64."""
        from repro.traversal.msbfs import MAX_SOURCES

        return self.wave_lanes.mean / MAX_SOURCES

    def section(self) -> dict:
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
                "windowed_qps": self.windowed_qps,
                "window_s": WINDOW_S,
            },
        }
