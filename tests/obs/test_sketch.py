"""Quantile sketch: bucket math, quantiles, insertion-order invariance."""

import numpy as np
import pytest

from repro.obs.sketch import QuantileSketch


class TestBucketMath:
    @pytest.mark.parametrize("value", [1e-9, 0.37, 1.0, 7.25, 1e6])
    def test_bucket_bound_invariant(self, value):
        # gamma^(i-1) < v <= gamma^i: the invariant the error bound
        # proof in the module docstring rests on.
        sk = QuantileSketch(0.01)
        i = sk.bucket_index(value)
        gamma = sk.gamma
        assert gamma ** (i - 1) < value <= gamma ** i

    def test_representative_within_alpha(self):
        sk = QuantileSketch(0.02)
        for value in (0.003, 1.0, 42.5, 9e4):
            i = sk.bucket_index(value)
            rep = sk.bucket_value(i)
            assert abs(rep - value) <= 0.02 * value * (1 + 1e-12)

    def test_bad_accuracy_raises(self):
        with pytest.raises(ValueError):
            QuantileSketch(0.0)
        with pytest.raises(ValueError):
            QuantileSketch(1.0)


class TestAdd:
    def test_negative_raises(self):
        with pytest.raises(ValueError, match="values >= 0"):
            QuantileSketch().add(-1.0)

    def test_zero_goes_to_zero_bucket(self):
        sk = QuantileSketch()
        sk.add(0.0, count=3)
        assert sk.zero_count == 3
        assert sk.count == 3
        assert sk.quantile(0.5) == 0.0

    def test_min_max_sum_exact(self):
        sk = QuantileSketch()
        for v in (3.0, 1.0, 2.0):
            sk.add(v)
        assert sk.min == 1.0
        assert sk.max == 3.0
        assert sk.sum == 6.0
        assert sk.mean == 2.0


class TestQuantile:
    def test_matches_numpy_within_bound(self):
        rng = np.random.default_rng(7)
        values = rng.lognormal(mean=-1.0, sigma=2.0, size=5000)
        sk = QuantileSketch(0.01)
        for v in values:
            sk.add(float(v))
        for q in (0.5, 0.9, 0.95, 0.99):
            exact = float(np.quantile(values, q, method="higher"))
            got = sk.quantile(q)
            assert abs(got - exact) <= 0.01 * exact * (1 + 1e-9), q

    def test_extremes(self):
        sk = QuantileSketch()
        for v in (1.0, 2.0, 3.0):
            sk.add(v)
        assert abs(sk.quantile(0.0) - 1.0) <= 0.01 * 1.0
        assert abs(sk.quantile(1.0) - 3.0) <= 0.01 * 3.0

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            QuantileSketch().quantile(0.5)

    def test_bad_q_raises(self):
        with pytest.raises(ValueError):
            QuantileSketch().quantile(1.5)

    def test_summary_keys(self):
        sk = QuantileSketch()
        sk.add(1.0)
        s = sk.summary()
        assert set(s) == {
            "count", "sum", "mean", "min", "max",
            "relative_accuracy", "p50", "p95", "p99",
        }


class TestSerialization:
    def test_insertion_order_invisible(self):
        # The dumped summary of the same multiset of values is the
        # same in any insertion order (exact sum, sorted buckets).
        values = [0.5, 3.0, 0.5, 9.0, 1e-3]
        a, b = QuantileSketch(), QuantileSketch()
        for v in values:
            a.add(v)
        for v in reversed(values):
            b.add(v)
        assert a.summary() == b.summary()
        assert a.quantile(0.5) == b.quantile(0.5)
