"""Tests for hazard-rate analysis."""

import pytest

from repro.stats.distributions import Exponential, Gamma, LogNormal, Poisson, Weibull
from repro.stats.hazard import HazardDirection, hazard_direction


class TestHazardDirection:
    def test_exponential_constant(self):
        assert hazard_direction(Exponential(scale=5.0)) is HazardDirection.CONSTANT

    def test_weibull_below_one_decreasing(self):
        # The paper's headline: shape 0.7-0.8 => decreasing hazard.
        assert hazard_direction(Weibull(shape=0.7, scale=1.0)) is HazardDirection.DECREASING

    def test_weibull_above_one_increasing(self):
        assert hazard_direction(Weibull(shape=1.5, scale=1.0)) is HazardDirection.INCREASING

    def test_weibull_near_one_constant(self):
        assert hazard_direction(Weibull(shape=1.01, scale=1.0)) is HazardDirection.CONSTANT

    def test_gamma_mirrors_weibull_rule(self):
        assert hazard_direction(Gamma(shape=0.5, scale=1.0)) is HazardDirection.DECREASING
        assert hazard_direction(Gamma(shape=3.0, scale=1.0)) is HazardDirection.INCREASING

    def test_lognormal_non_monotone(self):
        assert hazard_direction(LogNormal(mu=0.0, sigma=1.0)) is HazardDirection.NON_MONOTONE

    def test_unsupported_distribution(self):
        with pytest.raises(TypeError):
            hazard_direction(Poisson(rate=3.0))
