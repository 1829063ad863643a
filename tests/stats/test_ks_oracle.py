"""``ks_statistic`` against the full-evaluation oracle, bit for bit.

Samples come from all six families, fitted or mis-fitted, with ties,
atoms where zeros were clamped, Poisson steps, negative values, and
sizes on either side of a multiple of the statistic's probe block.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from repro.stats.distributions import (
    Exponential,
    Gamma,
    LogNormal,
    Normal,
    Poisson,
    Weibull,
)
from repro.stats.gof import KS_BLOCK, ks_statistic
from tests.stats import reference_gof

EDGE_SIZES = sorted(
    {1, 2, 3}
    | {KS_BLOCK * k + d for k in (1, 2, 3, 4, 17) for d in (-1, 0, 1)}
)
FAMILIES = ("exponential", "weibull", "gamma", "lognormal", "normal", "poisson")


def _truth(family: str, rng: np.random.Generator):
    if family == "exponential":
        return Exponential(scale=rng.uniform(0.5, 1e4))
    if family == "weibull":
        return Weibull(shape=rng.uniform(0.3, 3.0), scale=rng.uniform(0.5, 1e5))
    if family == "gamma":
        return Gamma(shape=rng.uniform(0.2, 5.0), scale=rng.uniform(0.5, 1e4))
    if family == "lognormal":
        return LogNormal(mu=rng.uniform(-2.0, 8.0), sigma=rng.uniform(0.2, 3.0))
    if family == "normal":
        return Normal(mu=rng.uniform(-50.0, 50.0), sigma=rng.uniform(0.5, 40.0))
    return Poisson(rate=rng.uniform(0.5, 60.0))


def _misfit(truth, factor: float):
    """``truth`` with its parameters pushed by ``factor``."""
    if isinstance(truth, Exponential):
        return Exponential(scale=truth.scale * factor)
    if isinstance(truth, (Weibull, Gamma)):
        return type(truth)(shape=truth.shape * factor, scale=truth.scale / factor)
    if isinstance(truth, LogNormal):
        return LogNormal(mu=truth.mu + np.log(factor), sigma=truth.sigma * factor)
    if isinstance(truth, Normal):
        return Normal(mu=truth.mu + 5.0 * np.log(factor), sigma=truth.sigma * factor)
    return Poisson(rate=truth.rate * factor)


def _case(family: str, n: int, seed: int, ties: str, factor: float):
    rng = np.random.Generator(np.random.PCG64(seed))
    truth = _truth(family, rng)
    data = truth.sample(rng, n)
    if ties == "round":
        # Coarse rounding makes long runs of equal values.
        data = np.round(data, -int(np.floor(np.log10(np.ptp(data) + 1.0))) + 1)
    elif ties == "atom" and family not in ("normal", "poisson"):
        # Zeros clamped to a positive epsilon: one atom at the bottom.
        epsilon = float(rng.choice([0.1, 1.0]))
        data = np.where(rng.random(n) < 0.3, 0.0, data)
        data = np.where(data <= 0, epsilon, data)
    return data, _misfit(truth, factor)


def _assert_identical(data, distribution) -> None:
    got = ks_statistic(data, distribution)
    want = reference_gof.ks_statistic(data, distribution)
    assert got.hex() == want.hex(), (got, want, distribution.describe())


@settings(max_examples=300, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    n=st.one_of(st.sampled_from(EDGE_SIZES), st.integers(1, 4000)),
    seed=st.integers(0, 2**32 - 1),
    ties=st.sampled_from(["none", "round", "atom"]),
    factor=st.one_of(st.just(1.0), st.floats(0.25, 4.0)),
)
def test_equals_the_full_evaluation(family, n, seed, ties, factor):
    data, distribution = _case(family, n, seed, ties, factor)
    _assert_identical(data, distribution)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", EDGE_SIZES)
def test_equals_the_full_evaluation_at_block_edges(family, n):
    for seed in range(3):
        for factor in (1.0, 0.7):
            data, distribution = _case(family, n, seed, "none", factor)
            _assert_identical(data, distribution)
            # Reversed input: the statistic sorts its own copy.
            _assert_identical(data[::-1].copy(), distribution)


def test_heavy_ties_and_atoms():
    rng = np.random.Generator(np.random.PCG64(11))
    data = np.concatenate([np.full(5000, 1.0), rng.integers(1, 40, 3000) * 60.0])
    for distribution in (
        Exponential(scale=200.0),
        Weibull(shape=0.6, scale=150.0),
        Gamma(shape=0.5, scale=400.0),
        LogNormal(mu=3.0, sigma=2.0),
    ):
        _assert_identical(data, distribution)


def test_a_jump_inside_the_last_block():
    # The CDF runs 0.35 -> 0.7 over the first block, then jumps to 1
    # just after the last block's start: the supremum (1 - 65/128) sits
    # inside that block, and only the probe at the last point bounds it.
    n = 2 * KS_BLOCK
    data = np.concatenate([
        special.ndtri(0.35 + 0.35 * np.arange(KS_BLOCK) / KS_BLOCK),
        special.ndtri([0.7]),
        10.0 + np.arange(KS_BLOCK - 1),
    ])
    distribution = Normal(mu=0.0, sigma=1.0)
    assert ks_statistic(data, distribution) == pytest.approx(1 - 65 / n)
    _assert_identical(data, distribution)


class _NanTail:
    """A CDF that is NaN from ``start`` up, as a broken fit's can be."""

    def __init__(self, start: float) -> None:
        self.start = start

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < self.start, 0.5, np.nan)


@pytest.mark.parametrize("n", [1, KS_BLOCK, 1000])
def test_nan_cdf_gives_nan(n):
    data = np.linspace(2.0, 1.0, n)
    tail = _NanTail(start=float(np.quantile(data, 0.9)))
    for distribution in (Normal(mu=0.0, sigma=float("nan")), tail):
        assert np.isnan(reference_gof.ks_statistic(data, distribution))
        assert np.isnan(ks_statistic(data, distribution))
