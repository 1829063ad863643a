"""Property-based tests for the fitting / empirical layer.

Complements ``test_distribution_properties.py`` (laws of the parametric
families) with properties of the *estimators*: MLE round-trips recover
known parameters, the empirical summary brackets its sample, and
:func:`~repro.stats.fitting.fit_all` raises nothing but
:class:`~repro.stats.fitting.FitError` — whatever adversarial sample it
is handed — which is what lets a report section degrade instead of
crash.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.stats import (
    DegenerateSampleError,
    EmpiricalDistribution,
    FitError,
    fit_all,
    fit_lognormal,
    fit_weibull,
)

# Estimator round-trips need real samples; 400 observations keeps each
# example fast while bounding MLE noise to a few percent.
ROUND_TRIP_N = 400


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


# ----------------------------------------------------------------------
# Fit round-trips: sample from a known distribution, refit, recover.
# ----------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    shape=st.floats(min_value=0.5, max_value=2.5),
    scale=st.floats(min_value=0.5, max_value=1e4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_weibull_fit_round_trip(shape, scale, seed):
    sample = scale * _rng(seed).weibull(shape, ROUND_TRIP_N)
    fitted = fit_weibull(sample).distribution
    # At shape ~0.5 the scale MLE's relative sd is ~11% for n=400, so
    # the bound must sit several sigma out to hold over every seed.
    assert abs(fitted.shape - shape) / shape < 0.3
    assert abs(fitted.scale - scale) / scale < 0.45


@settings(max_examples=25, deadline=None)
@given(
    mu=st.floats(min_value=-2.0, max_value=8.0),
    sigma=st.floats(min_value=0.2, max_value=2.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_lognormal_fit_round_trip(mu, sigma, seed):
    generator = _rng(seed)
    sample = np.exp(mu + sigma * generator.standard_normal(ROUND_TRIP_N))
    fitted = fit_lognormal(sample).distribution
    assert abs(fitted.mu - mu) < 0.3
    assert abs(fitted.sigma - sigma) / sigma < 0.25


# ----------------------------------------------------------------------
# Empirical summary: the statistics stay inside the sample's range.
# ----------------------------------------------------------------------

finite_samples = st.lists(
    st.floats(
        min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
    ),
    min_size=1,
    max_size=200,
)


@settings(max_examples=50, deadline=None)
@given(finite_samples)
def test_empirical_summary_brackets_the_sample(sample):
    summary = EmpiricalDistribution.from_data(sample)
    assert summary.count == len(sample)
    # np.mean/np.median accumulate in floats: summing n identical huge
    # values and dividing can land 1 ULP outside [min, max].
    slack = 4 * np.spacing(max(abs(summary.minimum), abs(summary.maximum), 1.0))
    assert summary.minimum - slack <= summary.median <= summary.maximum + slack
    assert summary.minimum - slack <= summary.mean <= summary.maximum + slack
    assert summary.std >= 0.0


# ----------------------------------------------------------------------
# fit_all: FitError is the only way it fails on adversarial inputs.
# ----------------------------------------------------------------------

adversarial_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.just(0.0),
    st.just(-0.0),
    st.floats(min_value=-1e-300, max_value=1e-300),
)


@settings(max_examples=60, deadline=None)
@given(sample=st.lists(adversarial_values, min_size=0, max_size=50))
def test_fit_all_fails_only_with_fit_error(sample):
    try:
        fits = fit_all(sample, zero_policy="clamp", epsilon=0.1)
    except FitError as exc:
        assert str(exc)
        return
    assert fits
    nlls = [fit.nll for fit in fits]
    assert nlls == sorted(nlls)


@settings(max_examples=30, deadline=None)
@given(
    value=st.floats(min_value=0.1, max_value=1e6),
    n=st.integers(min_value=2, max_value=40),
)
def test_fit_all_constant_sample_fits_or_is_degenerate(value, n):
    # A constant sample has zero variance: a family that cannot fit it
    # fails as degenerate data, never as a crash or a plain FitError.
    try:
        fit_all([value] * n)
    except FitError as exc:
        assert isinstance(exc, DegenerateSampleError)
