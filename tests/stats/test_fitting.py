"""Tests for the MLE fitters."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.stats.distributions import Exponential, Gamma, LogNormal, Weibull
from repro.stats.errors import DegenerateSampleError
from repro.stats.fitting import (
    DegenerateFitError,
    FitError,
    fit_all,
    fit_all_discrete,
    fit_exponential,
    fit_gamma,
    fit_lognormal,
    fit_normal,
    fit_poisson,
    fit_weibull,
    prepare_positive,
)


def sample(dist, n=30_000, seed=0):
    generator = np.random.Generator(np.random.PCG64(seed))
    return dist.sample(generator, n)


class TestParameterRecovery:
    def test_exponential(self):
        fit = fit_exponential(sample(Exponential(scale=250.0)))
        assert fit.distribution.scale == pytest.approx(250.0, rel=0.03)

    @pytest.mark.parametrize("shape", [0.5, 0.7, 1.0, 1.8])
    def test_weibull(self, shape):
        fit = fit_weibull(sample(Weibull(shape=shape, scale=100.0)))
        assert fit.distribution.shape == pytest.approx(shape, rel=0.03)
        assert fit.distribution.scale == pytest.approx(100.0, rel=0.05)

    @pytest.mark.parametrize("shape", [0.4, 1.0, 5.0])
    def test_gamma(self, shape):
        fit = fit_gamma(sample(Gamma(shape=shape, scale=20.0)))
        assert fit.distribution.shape == pytest.approx(shape, rel=0.05)
        assert fit.distribution.scale == pytest.approx(20.0, rel=0.07)

    def test_lognormal(self):
        fit = fit_lognormal(sample(LogNormal(mu=3.5, sigma=2.1)))
        assert fit.distribution.mu == pytest.approx(3.5, abs=0.05)
        assert fit.distribution.sigma == pytest.approx(2.1, rel=0.03)

    def test_normal(self):
        generator = np.random.Generator(np.random.PCG64(0))
        fit = fit_normal(generator.normal(7.0, 3.0, 30_000))
        assert fit.distribution.mu == pytest.approx(7.0, abs=0.1)
        assert fit.distribution.sigma == pytest.approx(3.0, rel=0.03)

    def test_poisson(self):
        generator = np.random.Generator(np.random.PCG64(0))
        fit = fit_poisson(generator.poisson(12.0, 10_000).astype(float))
        assert fit.distribution.rate == pytest.approx(12.0, rel=0.03)


class TestRanking:
    def test_true_model_wins(self):
        # For each generator, the matching family should rank first.
        cases = [
            (Weibull(shape=0.6, scale=100.0), "weibull"),
            (LogNormal(mu=2.0, sigma=1.5), "lognormal"),
            (Exponential(scale=50.0), ("exponential", "weibull", "gamma")),
        ]
        for dist, expected in cases:
            best = fit_all(sample(dist, seed=3))[0].name
            if isinstance(expected, tuple):
                # Exponential is nested in Weibull/gamma; any of the
                # three can win by a hair of likelihood.
                assert best in expected
            else:
                assert best == expected

    def test_results_sorted_by_nll(self):
        fits = fit_all(sample(Weibull(shape=0.7, scale=10.0)))
        nlls = [fit.nll for fit in fits]
        assert nlls == sorted(nlls)

    def test_four_candidates_on_positive_data(self):
        fits = fit_all(sample(LogNormal(mu=0.0, sigma=1.0)))
        assert {fit.name for fit in fits} == {
            "exponential", "weibull", "gamma", "lognormal",
        }

    def test_discrete_overdispersed_counts_reject_poisson(self):
        generator = np.random.Generator(np.random.PCG64(5))
        rates = generator.lognormal(4.0, 0.6, 300)
        counts = generator.poisson(rates).astype(float)
        fits = fit_all_discrete(counts)
        assert fits[-1].name == "poisson"

    def test_discrete_true_poisson_accepts_poisson(self):
        generator = np.random.Generator(np.random.PCG64(5))
        counts = generator.poisson(50.0, 2000).astype(float)
        fits = fit_all_discrete(counts)
        assert fits[0].name == "poisson"


class TestZeroPolicies:
    DATA = [0.0, 0.0, 5.0, 10.0, 20.0]

    def test_error_policy(self):
        with pytest.raises(FitError, match="non-positive"):
            prepare_positive(self.DATA, zero_policy="error")
        # fit_all forwards its policy.
        with pytest.raises(FitError, match="non-positive"):
            fit_all(self.DATA, zero_policy="error")
        assert fit_all(self.DATA, zero_policy="drop")

    def test_drop_policy(self):
        cleaned = prepare_positive(self.DATA, zero_policy="drop")
        assert cleaned.tolist() == [5.0, 10.0, 20.0]

    def test_clamp_policy(self):
        cleaned = prepare_positive(self.DATA, zero_policy="clamp", epsilon=0.5)
        assert cleaned.tolist() == [0.5, 0.5, 5.0, 10.0, 20.0]

    def test_clamp_needs_positive_epsilon(self):
        with pytest.raises(FitError):
            prepare_positive(self.DATA, zero_policy="clamp", epsilon=0.0)

    def test_negative_rejected_always(self):
        with pytest.raises(FitError, match="negative"):
            prepare_positive([-1.0, 2.0], zero_policy="drop")
        # Negative values are a data-integrity problem, not thin data, so
        # a report section fails rather than degrades on them.
        with pytest.raises(FitError) as excinfo:
            fit_all([1.0, -2.0, 3.0])
        assert not isinstance(excinfo.value, DegenerateSampleError)

    def test_unknown_policy(self):
        with pytest.raises(FitError):
            prepare_positive([1.0, 2.0], zero_policy="whatever")

    def test_fit_all_clamp_matches_paper_flow(self):
        # Interarrivals with zeros (Figure 6(c)) still produce a ranking.
        data = np.concatenate([np.zeros(50), sample(Weibull(0.7, 1e5), 500)])
        fits = fit_all(data, zero_policy="clamp")
        assert len(fits) == 4


class TestDegenerateInputs:
    def test_too_small(self):
        with pytest.raises(FitError):
            fit_weibull([1.0])
        # Thin data is degenerate: a report section degrades on it.
        assert issubclass(DegenerateFitError, FitError)
        assert issubclass(DegenerateFitError, DegenerateSampleError)
        with pytest.raises(DegenerateFitError):
            fit_all([5.0])
        with pytest.raises(FitError):
            fit_all_discrete([])

    def test_constant_sample(self):
        with pytest.raises(FitError):
            fit_weibull([5.0, 5.0, 5.0])
        with pytest.raises(DegenerateFitError):
            fit_lognormal([5.0, 5.0, 5.0])
        with pytest.raises(FitError):
            fit_normal([5.0, 5.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(FitError):
            fit_exponential([1.0, float("inf")])

    def test_poisson_requires_integers(self):
        with pytest.raises(FitError):
            fit_poisson([1.5, 2.0])

    def test_lognormal_requires_positive(self):
        with pytest.raises(FitError):
            fit_lognormal([0.0, 1.0, 2.0])


class TestFitResultMetadata:
    def test_aic_bic_relationship(self):
        fit = fit_weibull(sample(Weibull(0.8, 10.0), n=1000))
        assert fit.aic == pytest.approx(2 * 2 + 2 * fit.nll)
        assert fit.bic == pytest.approx(2 * np.log(1000) + 2 * fit.nll)
        assert fit.n == 1000

    def test_exponential_has_one_parameter(self):
        fit = fit_exponential(sample(Exponential(10.0), n=100))
        assert fit.aic == pytest.approx(2 * 1 + 2 * fit.nll)

    def test_ks_in_unit_interval(self):
        fit = fit_gamma(sample(Gamma(2.0, 5.0), n=500))
        assert 0.0 <= fit.ks <= 1.0
        assert fit.ks < 0.1  # true family, large n

    def test_describe_mentions_parameters(self):
        fit = fit_weibull(sample(Weibull(0.7, 10.0), n=200))
        assert "Weibull" in fit.describe()
        assert "nll=" in fit.describe()


@settings(max_examples=25, deadline=None)
@given(
    shape=st.floats(min_value=0.4, max_value=3.0),
    scale=st.floats(min_value=0.1, max_value=1e4),
    seed=st.integers(min_value=0, max_value=100),
)
def test_weibull_newton_always_converges(shape, scale, seed):
    """Property: the Weibull fitter converges to positive parameters
    and beats (or ties) a mis-specified exponential on likelihood."""
    data = sample(Weibull(shape=shape, scale=scale), n=400, seed=seed)
    fit = fit_weibull(data)
    assert fit.distribution.shape > 0
    assert fit.distribution.scale > 0
    exponential = fit_exponential(data)
    assert fit.nll <= exponential.nll + 1e-6


def test_weibull_newton_stops_on_an_exact_root(monkeypatch):
    """A Newton step that lands exactly on the root ends the search.

    The bracket is open, so an exact root (g == 0) would become its low
    end and bisection would walk back to it from the midpoint, dozens
    of evaluations over the whole sample.  Here g(k) = k - 0.5 and
    Newton from k0 = 1.2 / std(ln x) ~ 0.45 reaches 0.5 in one step.
    """
    import repro.stats.fitting as fitting

    calls = []

    def equation(k, values, mean_log):
        calls.append(k)
        return k - 0.5, 1.0

    monkeypatch.setattr(fitting, "_weibull_shape_equation", equation)
    fit = fit_weibull(np.geomspace(1.0, 1e4, 50))
    assert fit.distribution.shape == 0.5
    assert calls[-1] == 0.5
    assert len(calls) == 2
