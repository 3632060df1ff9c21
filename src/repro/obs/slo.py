"""SLO specs, multi-window burn-rate alerting, and the JSONL event log.

Batch metrics say what a finished run cost; a *service* needs to know,
continuously, whether it is meeting its promises.  This module supplies
the standard SRE machinery, evaluated on the **simulated** clock so
every alert fires (or doesn't) byte-deterministically:

* :class:`SLOSpec` — a declarative objective.  Two kinds::

      SLOSpec(name="latency-p99", kind="latency",
              objective=0.99, threshold_s=2e-7, ...)
      # "99% of served queries complete within 200 sim-ns"

      SLOSpec(name="miss-rate", kind="miss", objective=0.95, ...)
      # "95% of terminal outcomes are served (not expired/rejected)"

* :class:`SLOEngine` — records one good/bad observation per query
  outcome into a per-spec :class:`~repro.obs.timeseries.TimeSeries`
  and evaluates **multi-window burn rates**: with error budget
  ``1 - objective``, the burn rate over a window is
  ``bad_fraction / budget`` (1.0 = spending the budget exactly on
  schedule; 10 = ten times too fast).  An alert requires the burn to
  exceed ``burn_threshold`` on *both* the long and the short window —
  the long window gives significance, the short window proves the
  overload is still happening (no alerting on stale history).  State
  transitions (ok ↔ alerting) are returned and logged as events.

* :class:`EventLog` — append-only structured JSONL (one canonical
  ``json.dumps(sort_keys=True)`` object per line, monotone ``seq``)
  with size-based rotation to ``<path>.1``.  Admissions, rejections,
  expiries, cache hits/evictions, epoch transitions, waves, and SLO
  state changes all land here; two identical drives produce
  byte-identical logs (asserted in CI).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.obs.timeseries import TimeSeries

__all__ = ["SLOSpec", "SLOState", "SLOEngine", "EventLog"]

#: Observation kinds an SLOSpec can judge.
SLO_KINDS = ("latency", "miss")


@dataclass(frozen=True)
class SLOSpec:
    """One declarative service-level objective.

    ``kind="latency"`` judges *served* queries only: an observation is
    bad when its latency exceeds ``threshold_s``.  ``kind="miss"``
    judges every terminal outcome: bad when the query was expired or
    rejected.  ``objective`` is the target good fraction (0.99 = "99%
    good"); the error budget is ``1 - objective``.
    """

    name: str
    kind: str
    objective: float
    #: Latency cutoff on the simulated clock (latency kind only).
    threshold_s: float = 0.0
    long_window_s: float = 1e-6
    short_window_s: float = 1e-7
    #: Alert when burn exceeds this on BOTH windows.
    burn_threshold: float = 10.0

    def __post_init__(self) -> None:
        if self.kind not in SLO_KINDS:
            raise ValueError(
                f"kind must be one of {SLO_KINDS}, got {self.kind!r}"
            )
        if not (0.0 < self.objective < 1.0):
            raise ValueError(
                f"objective must be in (0, 1), got {self.objective}"
            )
        if self.kind == "latency" and self.threshold_s <= 0:
            raise ValueError("latency SLO needs threshold_s > 0")
        if self.short_window_s <= 0 or self.long_window_s < self.short_window_s:
            raise ValueError(
                f"windows must satisfy 0 < short <= long, got "
                f"short={self.short_window_s} long={self.long_window_s}"
            )
        if self.burn_threshold <= 0:
            raise ValueError(
                f"burn_threshold must be > 0, got {self.burn_threshold}"
            )

    @property
    def budget(self) -> float:
        """Error budget: tolerable bad fraction."""
        return 1.0 - self.objective


@dataclass
class SLOState:
    """Mutable evaluation state for one spec."""

    spec: SLOSpec
    #: bad ∈ {0, 1} per observation, on the simulated clock.
    series: TimeSeries = field(
        default_factory=lambda: TimeSeries(capacity=4096)
    )
    alerting: bool = False
    #: Times the state flipped ok -> alerting.
    alerts: int = 0
    bad_total: int = 0

    def burn(self, window_s: float, now: float) -> float:
        """Burn rate over ``(now - window_s, now]`` (0 if no samples)."""
        stats = self.series.stats(window_s, now=now)
        if stats["count"] == 0:
            return 0.0
        bad_fraction = stats["sum"] / stats["count"]
        return bad_fraction / self.spec.budget

    def snapshot(self, now: float) -> dict:
        """Numeric-only state for the metrics ``service`` section."""
        spec = self.spec
        return {
            "objective": spec.objective,
            "burn_threshold": spec.burn_threshold,
            "long_window_s": spec.long_window_s,
            "short_window_s": spec.short_window_s,
            "burn_long": self.burn(spec.long_window_s, now),
            "burn_short": self.burn(spec.short_window_s, now),
            "alerting": 1.0 if self.alerting else 0.0,
            "alerts": float(self.alerts),
            "observations": float(len(self.series)),
            "bad": float(self.bad_total),
        }


class SLOEngine:
    """Evaluates a set of :class:`SLOSpec` s against the outcome stream."""

    def __init__(self, specs: tuple[SLOSpec, ...] = ()) -> None:
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names: {sorted(names)}")
        self.states: dict[str, SLOState] = {
            s.name: SLOState(spec=s) for s in specs
        }

    def observe(
        self, t: float, *, outcome: str, latency_s: float | None = None
    ) -> list[tuple[str, bool]]:
        """Record one terminal query outcome; returns state changes.

        ``outcome`` is a :class:`~repro.serve.service.QueryResult`
        status (done/cached/rejected/expired).  Latency specs observe
        only served queries; miss specs observe everything.  The
        returned list holds ``(spec_name, now_alerting)`` transitions,
        ready for the event log.
        """
        changes: list[tuple[str, bool]] = []
        for state in self.states.values():
            spec = state.spec
            if spec.kind == "latency":
                if outcome not in ("done", "cached") or latency_s is None:
                    continue
                bad = latency_s > spec.threshold_s
            else:  # miss
                bad = outcome in ("rejected", "expired")
            state.series.record(t, 1.0 if bad else 0.0)
            if bad:
                state.bad_total += 1
            changes.extend(self._evaluate(state, t))
        return changes

    def _evaluate(self, state: SLOState, now: float) -> list:
        spec = state.spec
        short = state.series.stats(spec.short_window_s, now=now)
        firing = (
            short["count"] > 0
            and state.burn(spec.long_window_s, now) > spec.burn_threshold
            and state.burn(spec.short_window_s, now) > spec.burn_threshold
        )
        if firing == state.alerting:
            return []
        state.alerting = firing
        if firing:
            state.alerts += 1
        return [(spec.name, firing)]

    def section(self, now: float) -> dict:
        """Per-spec numeric snapshot keyed by spec name."""
        return {
            name: state.snapshot(now)
            for name, state in sorted(self.states.items())
        }

    @property
    def any_alerting(self) -> bool:
        return any(s.alerting for s in self.states.values())


#: Default rotation bound: one log file tops out at 4 MiB.
DEFAULT_MAX_BYTES = 4 * 1024 * 1024


class EventLog:
    """Append-only canonical JSONL with size-based rotation.

    Events are kept in memory (``lines``) and, when ``path`` is given,
    written through immediately.  When the live file would exceed
    ``max_bytes`` it is rotated to ``<path>.1`` (one generation — the
    bound is on disk footprint, not history).  Line format::

        {"kind": "...", "seq": N, "t": <sim seconds>, ...fields}

    ``json.dumps(sort_keys=True, separators=(",", ":"))`` per line, so
    identical event streams are byte-identical files.
    """

    def __init__(
        self, path: str | None = None,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ) -> None:
        if max_bytes < 1024:
            raise ValueError(f"max_bytes must be >= 1024, got {max_bytes}")
        self.path = path
        self.max_bytes = max_bytes
        self.lines: list[str] = []
        self.seq = 0
        self.rotations = 0
        self._fh = None
        self._file_bytes = 0
        if path is not None:
            self._fh = open(path, "w")

    def emit(self, t: float, kind: str, **fields) -> dict:
        """Append one event; returns the event dict."""
        event = {"kind": kind, "seq": self.seq, "t": float(t), **fields}
        self.seq += 1
        line = json.dumps(event, sort_keys=True, separators=(",", ":"))
        self.lines.append(line)
        if self._fh is not None:
            encoded = len(line) + 1
            if self._file_bytes and self._file_bytes + encoded > self.max_bytes:
                self._rotate()
            self._fh.write(line + "\n")
            self._fh.flush()
            self._file_bytes += encoded
        return event

    def _rotate(self) -> None:
        self._fh.close()
        os.replace(self.path, self.path + ".1")
        self._fh = open(self.path, "w")
        self._file_bytes = 0
        self.rotations += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.lines)

    @staticmethod
    def parse(text: str) -> list[dict]:
        """Parse JSONL text (e.g. a recorded log file) into events."""
        events = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"event log line {lineno} is not JSON: {exc}"
                ) from None
            if not isinstance(event, dict) or "kind" not in event:
                raise ValueError(
                    f"event log line {lineno} is not an event object"
                )
            events.append(event)
        return events
