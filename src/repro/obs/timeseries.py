"""Deterministic ring-buffer time-series on the simulated clock.

A long-running service needs a *streaming* view of its own behaviour —
queries per second over the last window — not one end-of-run total.
:class:`TimeSeries` is the building block: a fixed-capacity ring of
``(t, value)`` points keyed on the **simulated** clock
(``engine.elapsed_seconds``), so two identical drives record identical
points and every rollup is byte-reproducible.

Design constraints, in order:

* **Bounded memory.**  Capacity is fixed at construction; recording
  point ``capacity + 1`` silently drops the oldest.  A service alive
  for millions of sim-seconds keeps a constant footprint.
* **Monotone time.**  ``record`` requires non-decreasing timestamps —
  the simulated clock never goes backwards, and enforcing it here
  keeps :meth:`stats` a single reverse scan instead of a sort.
* **Windowed rollups.**  ``stats(window_s, now)`` aggregates the points
  in ``(now - window_s, now]``: count, sum, mean, max, and the two
  rates (events/sec and value/sec).  The ``service`` metrics section
  reads its ``windowed_qps`` from here.
"""

from __future__ import annotations

__all__ = ["TimeSeries"]


class TimeSeries:
    """Fixed-capacity ring of ``(t, value)`` samples, monotone in ``t``."""

    __slots__ = ("capacity", "_t", "_v", "_start", "_len")

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._t: list[float] = [0.0] * self.capacity
        self._v: list[float] = [0.0] * self.capacity
        self._start = 0  # index of the oldest live point
        self._len = 0

    def record(self, t: float, value: float = 1.0) -> None:
        """Append one sample; ``t`` must not precede the last sample."""
        t = float(t)
        if self._len:
            last = self._t[(self._start + self._len - 1) % self.capacity]
            if t < last:
                raise ValueError(f"time went backwards: {t} < {last}")
        idx = (self._start + self._len) % self.capacity
        self._t[idx] = t
        self._v[idx] = float(value)
        if self._len < self.capacity:
            self._len += 1
        else:  # ring full: the slot we just wrote was the oldest point
            self._start = (self._start + 1) % self.capacity

    def stats(self, window_s: float, now: float) -> dict:
        """Aggregate the samples in ``(now - window_s, now]``.

        Returns a numeric-only dict (diffable by ``repro compare``):
        ``count``, ``sum``, ``mean``, ``max``, ``rate`` (count / window)
        and ``value_rate`` (sum / window).  Samples newer than ``now``
        are excluded, so replaying a prefix of a run reproduces the
        exact rollup that run saw at that instant.
        """
        if window_s <= 0:
            raise ValueError(f"window_s must be > 0, got {window_s}")
        lo = now - window_s
        count = 0
        total = 0.0
        peak = 0.0
        # Reverse scan: points are time-ordered, so stop at the first
        # sample at or before the window's left edge.
        for i in range(self._len - 1, -1, -1):
            idx = (self._start + i) % self.capacity
            t = self._t[idx]
            if t > now:
                continue
            if t <= lo:
                break
            v = self._v[idx]
            count += 1
            total += v
            if count == 1 or v > peak:
                peak = v
        return {
            "count": float(count),
            "sum": total,
            "mean": total / count if count else 0.0,
            "max": peak,
            "rate": count / window_s,
            "value_rate": total / window_s,
        }
