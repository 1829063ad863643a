"""Tests for EmpiricalDistribution."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.stats.empirical import EmpiricalDistribution

finite_samples = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=1,
    max_size=200,
)


class TestSummary:
    def test_known_values(self):
        summary = EmpiricalDistribution.from_data([2.0, 4.0, 6.0, 8.0])
        assert summary.count == 4
        assert summary.mean == 5.0
        assert summary.median == 5.0
        assert summary.std == pytest.approx(np.sqrt(5.0))
        assert summary.minimum == 2.0
        assert summary.maximum == 8.0

    def test_squared_cv_of_exponential_sample(self):
        generator = np.random.Generator(np.random.PCG64(0))
        sample = generator.exponential(100.0, 50_000)
        summary = EmpiricalDistribution.from_data(sample)
        assert summary.squared_cv == pytest.approx(1.0, abs=0.05)

    def test_squared_cv_known(self):
        summary = EmpiricalDistribution.from_data([1.0, 3.0])
        # mean 2, var 1 => C2 = 0.25
        assert summary.squared_cv == pytest.approx(0.25)

    def test_mean_to_median_skew_indicator(self):
        summary = EmpiricalDistribution.from_data([1.0, 1.0, 1.0, 97.0])
        assert summary.mean_to_median == pytest.approx(25.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution.from_data([])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution.from_data([1.0, float("nan")])

    def test_zero_mean_cv_rejected(self):
        summary = EmpiricalDistribution.from_data([-1.0, 1.0])
        with pytest.raises(ZeroDivisionError):
            _ = summary.squared_cv

    def test_describe_contains_statistics(self):
        text = EmpiricalDistribution.from_data([1.0, 2.0, 3.0]).describe("min")
        assert "n=3" in text and "min" in text

    @given(finite_samples)
    def test_invariants(self, sample):
        summary = EmpiricalDistribution.from_data(sample)
        slack = 1e-9 * (1.0 + abs(summary.maximum) + abs(summary.minimum))
        assert summary.minimum - slack <= summary.median <= summary.maximum + slack
        assert summary.minimum - slack <= summary.mean <= summary.maximum + slack
        assert summary.std >= 0
        assert summary.count == len(sample)
