"""Log-bucketed quantile sketch (DDSketch-style).

Serving percentiles (p50/p95/p99 latency, wave width, queue wait) must
be computed over unbounded streams in bounded memory and — in this
codebase — be *byte-deterministic*.  The DDSketch construction
(Masson, Rim & Lee, VLDB'19) gives both:
values are counted in logarithmically-spaced buckets, so every bucket's
representative value is within a fixed **relative** error of anything
the bucket holds.

Guarantee
---------
With relative accuracy ``alpha`` the sketch uses ``gamma = (1 + alpha)
/ (1 - alpha)`` and maps a value ``v > 0`` to bucket ``i = ceil(log(v)
/ log(gamma))``, i.e. the unique ``i`` with ``gamma**(i-1) < v <=
gamma**i``.  The bucket's representative is the harmonic-style midpoint
``m_i = 2 * gamma**i / (gamma + 1)``.  For any ``u`` in the bucket::

    m_i / u  >=  m_i / gamma**i      = 2 / (gamma + 1) = 1 - alpha
    m_i / u  <=  m_i / gamma**(i-1)  = 2 * gamma / (gamma + 1) = 1 + alpha

so ``|m_i - u| <= alpha * u`` — an exact relative-error bound, not an
approximation.  :meth:`QuantileSketch.quantile` returns the
representative of the bucket holding the order statistic of rank
``ceil(q * (n - 1))`` (0-indexed — the same element
``numpy.quantile(..., method="higher")`` returns), hence::

    |sketch.quantile(q) - np.quantile(xs, q, method="higher")|
        <= alpha * np.quantile(xs, q, method="higher")

for any input distribution, adversarial or not (property-tested in
``tests/property/test_sketch_property.py``).

The ``sum`` moment is carried as an exact Shewchuk expansion (plain
float ``+=`` is not associative), so the reported total is the
correctly-rounded sum of the stream, whatever order it arrived in.
"""

from __future__ import annotations

import math

__all__ = ["QuantileSketch"]


def _exact_add(partials: list[float], x: float) -> None:
    """Shewchuk grow-expansion (``math.fsum``'s core), in place.

    Keeps ``partials`` an exact non-overlapping representation of the
    running sum, so the total — and its correctly-rounded float — is
    independent of accumulation order.
    """
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


class QuantileSketch:
    """Bounded-memory quantile estimator with relative accuracy ``alpha``.

    Only non-negative values are accepted (latencies, widths, byte
    counts — everything this repo measures).  Zeros are counted in a
    dedicated bucket and returned exactly.
    """

    __slots__ = ("alpha", "gamma", "_log_gamma", "_buckets",
                 "zero_count", "count", "_sum_partials", "min", "max")

    def __init__(self, relative_accuracy: float = 0.01) -> None:
        if not (0.0 < relative_accuracy < 1.0):
            raise ValueError(
                f"relative_accuracy must be in (0, 1), "
                f"got {relative_accuracy}"
            )
        self.alpha = float(relative_accuracy)
        self.gamma = (1.0 + self.alpha) / (1.0 - self.alpha)
        self._log_gamma = math.log(self.gamma)
        self._buckets: dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self._sum_partials: list[float] = []
        self.min = math.inf
        self.max = 0.0

    # -- ingest -------------------------------------------------------

    def bucket_index(self, value: float) -> int:
        """The unique ``i`` with ``gamma**(i-1) < value <= gamma**i``."""
        i = math.ceil(math.log(value) / self._log_gamma)
        # log() slop at exact powers of gamma can land one bucket off;
        # nudge so the invariant above holds exactly in float space.
        if self.gamma ** (i - 1) >= value:
            i -= 1
        elif self.gamma ** i < value:
            i += 1
        return i

    def add(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value`` (``value >= 0``)."""
        value = float(value)
        if value < 0.0:
            raise ValueError(f"sketch accepts only values >= 0, got {value}")
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if value == 0.0:
            self.zero_count += count
        else:
            i = self.bucket_index(value)
            self._buckets[i] = self._buckets.get(i, 0) + count
        self.count += count
        _exact_add(self._sum_partials, value * count)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    # -- queries ------------------------------------------------------

    @property
    def num_buckets(self) -> int:
        return len(self._buckets) + (1 if self.zero_count else 0)

    def bucket_value(self, index: int) -> float:
        """Representative value of bucket ``index`` (see module proof)."""
        return 2.0 * self.gamma ** index / (self.gamma + 1.0)

    def quantile(self, q: float) -> float:
        """Estimate of the order statistic at rank ``ceil(q * (n-1))``.

        Matches ``numpy.quantile(xs, q, method="higher")`` within
        relative error ``alpha`` (exactly for zeros).
        """
        if not (0.0 <= q <= 1.0):
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            raise ValueError("quantile of an empty sketch")
        rank = math.ceil(q * (self.count - 1))  # 0-indexed
        if rank < self.zero_count:
            return 0.0
        seen = self.zero_count
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if rank < seen:
                return self.bucket_value(index)
        return self.bucket_value(max(self._buckets))  # q == 1 slop

    @property
    def sum(self) -> float:
        """Correctly-rounded total (exact, accumulation-order-free)."""
        return math.fsum(self._sum_partials)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def summary(self, qs: tuple[float, ...] = (0.5, 0.95, 0.99)) -> dict:
        """Numeric-only summary for a metrics section (diffable)."""
        out = {
            "count": float(self.count),
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "relative_accuracy": self.alpha,
        }
        for q in qs:
            out[f"p{q * 100:g}".replace(".", "_")] = (
                self.quantile(q) if self.count else 0.0
            )
        return out

    def __repr__(self) -> str:
        return (
            f"QuantileSketch(alpha={self.alpha}, count={self.count}, "
            f"buckets={self.num_buckets})"
        )
