"""Tests for goodness-of-fit measures."""

import math

import numpy as np
import pytest

from repro.stats.distributions import Exponential
from repro.stats.gof import aic, bic, ks_statistic


class TestInformationCriteria:
    def test_aic(self):
        assert aic(100.0, 2) == 204.0

    def test_bic(self):
        assert bic(100.0, 2, 50) == pytest.approx(2 * math.log(50) + 200.0)

    def test_bic_requires_positive_n(self):
        with pytest.raises(ValueError):
            bic(1.0, 1, 0)

    def test_bic_penalizes_harder_than_aic_for_large_n(self):
        assert bic(0.0, 3, 1000) > aic(0.0, 3)


class TestKsStatistic:
    def test_bounds(self):
        generator = np.random.Generator(np.random.PCG64(0))
        data = generator.exponential(10.0, 100)
        ks = ks_statistic(data, Exponential(scale=10.0))
        assert 0.0 <= ks <= 1.0

    def test_small_for_true_model(self):
        generator = np.random.Generator(np.random.PCG64(0))
        data = generator.exponential(10.0, 10_000)
        assert ks_statistic(data, Exponential(scale=10.0)) < 0.02

    def test_large_for_wrong_model(self):
        generator = np.random.Generator(np.random.PCG64(0))
        data = generator.exponential(10.0, 10_000)
        assert ks_statistic(data, Exponential(scale=1000.0)) > 0.5

    def test_single_point(self):
        # ECDF jumps 0 -> 1 at the point; KS = max(cdf, 1 - cdf).
        dist = Exponential(scale=1.0)
        expected = max(dist.cdf(0.5), 1.0 - dist.cdf(0.5))
        assert ks_statistic([0.5], dist) == pytest.approx(float(expected))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic([], Exponential(scale=1.0))
