"""Property tests for the quantile sketch: error bound and moments.

The contracts the serving telemetry relies on:

* every reported quantile is within ``alpha`` relative error of the
  exact order statistic (``np.quantile(..., method="higher")``), for
  adversarial distributions — many decades of magnitude, duplicates,
  zeros, near-power-of-gamma values;
* count, min, max and sum are exact.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.sketch import QuantileSketch

# Adversarial positive values: ~30 decades of magnitude, plus exact
# duplicates and zeros mixed in by the list strategy.
values_st = st.lists(
    st.one_of(
        st.floats(min_value=1e-12, max_value=1e18, allow_nan=False,
                  allow_infinity=False),
        st.just(0.0),
        st.just(1.0),
        st.sampled_from([1e-7, 2.5e-7, 1e-6, 0.5, 512.0]),
    ),
    min_size=1,
    max_size=400,
)

alphas_st = st.sampled_from([0.005, 0.01, 0.05])
qs_st = st.sampled_from([0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0])


def build(values, alpha):
    sk = QuantileSketch(relative_accuracy=alpha)
    for v in values:
        sk.add(v)
    return sk


class TestErrorBound:
    @given(values=values_st, alpha=alphas_st, q=qs_st)
    @settings(max_examples=200, deadline=None)
    def test_quantile_within_relative_bound(self, values, alpha, q):
        sk = build(values, alpha)
        exact = float(np.quantile(np.array(values), q, method="higher"))
        got = sk.quantile(q)
        # |got - exact| <= alpha * exact, with float-slop headroom.
        assert abs(got - exact) <= alpha * exact * (1.0 + 1e-9)

    @given(values=values_st, alpha=alphas_st)
    @settings(max_examples=100, deadline=None)
    def test_exact_moments(self, values, alpha):
        sk = build(values, alpha)
        assert sk.count == len(values)
        assert sk.min == min(values)
        assert sk.max == max(values)
        # The sketch's sum is exact (Shewchuk partials), i.e. the
        # correctly-rounded total regardless of accumulation order.
        assert sk.sum == math.fsum(values)

