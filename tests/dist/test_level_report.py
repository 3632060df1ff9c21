"""Unit tests for the per-level values a report reads off a charge."""

import pytest

from repro.dist.cluster import LevelCharge
from repro.dist.exchange import ExchangeStats


def _charge(overlapped: float, exchange_seconds: float) -> LevelCharge:
    ex = ExchangeStats()
    ex.seconds = exchange_seconds
    return LevelCharge(
        name="level:0",
        level=0,
        expand_seconds=1.0,
        claim_seconds=0.5,
        exchange=ex,
        overlapped_seconds=overlapped,
    )


class TestOverlapRatio:
    def test_plain_fraction(self):
        assert _charge(0.25, 1.0).overlap_ratio == 0.25

    def test_zero_duration_exchange_is_zero(self):
        # The empty last-level frontier: no wire traffic, no division.
        assert _charge(0.0, 0.0).overlap_ratio == 0.0

    def test_degenerate_negative_duration_is_zero(self):
        assert _charge(0.1, -1.0).overlap_ratio == 0.0

    def test_fully_hidden(self):
        assert _charge(2.0, 2.0).overlap_ratio == 1.0


class TestLevelAnnotations:
    """What a report row reads off one level's charge."""

    def test_ratio_uses_exchange_seconds(self):
        assert _charge(1.0, 2.0).overlap_ratio == pytest.approx(0.5)

    def test_bound_names_the_largest_term(self):
        charge = _charge(0.0, 0.0)
        assert charge.bound == "expand"
        charge.exchange.transfer_seconds = 3.0
        assert charge.bound == "link"
        charge.exchange.latency_seconds = 4.0
        assert charge.bound == "latency"
