"""Tests for the modulated Weibull arrival sampler."""

import numpy as np
import pytest

from repro.records.timeutils import SECONDS_PER_DAY, SECONDS_PER_YEAR
from repro.stats.fitting import fit_weibull
from repro.synth.arrivals import ModulatedWeibullArrivals, invert_operational
from repro.synth.diurnal import WeeklyProfile


def make_sampler(rate_per_year=50.0, shape=0.85, years=10.0,
                 lifecycle=lambda age: 1.0, profile=None):
    return ModulatedWeibullArrivals(
        base_rate=rate_per_year / SECONDS_PER_YEAR,
        shape=shape,
        lifecycle=lifecycle,
        profile=profile if profile is not None else WeeklyProfile(enabled=False),
        start=0.0,
        end=years * SECONDS_PER_YEAR,
    )


def generator(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def sample(sampler, gen):
    """Failure times the way the trace generator draws them: operational
    totals, inverted through the window's grid, cut at its end."""
    totals = sampler.sample_operational_totals(gen)
    times = invert_operational(sampler._ensure_grid(), sampler._profile, totals)
    return times[times < sampler._end]


class TestBasics:
    def test_events_sorted_and_in_window(self):
        sampler = make_sampler()
        events = sample(sampler, generator())
        assert events.size > 100
        assert np.all(np.diff(events) >= 0)
        assert np.all((0.0 <= events) & (events < 10 * SECONDS_PER_YEAR))

    def test_zero_rate_yields_nothing(self):
        sampler = make_sampler(rate_per_year=0.0)
        assert sample(sampler, generator()).size == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            make_sampler(rate_per_year=-1.0)
        with pytest.raises(ValueError):
            make_sampler(shape=0.0)
        with pytest.raises(ValueError):
            ModulatedWeibullArrivals(
                base_rate=1.0, shape=0.8, lifecycle=lambda a: 1.0,
                profile=WeeklyProfile(enabled=False), start=10.0, end=5.0,
            )

    def test_nonpositive_lifecycle_rejected_at_sampling(self):
        sampler = make_sampler(lifecycle=lambda age: 0.0)
        with pytest.raises(ValueError):
            sample(sampler, generator())


class TestRateCalibration:
    def test_equilibrium_start_gives_unbiased_counts(self):
        """The stationary start removes the DFR renewal transient: the
        mean count over many replicas must match base_rate * window."""
        sampler = make_sampler(rate_per_year=20.0, years=5.0, shape=0.7)
        counts = [len(sample(sampler, generator(seed))) for seed in range(300)]
        assert np.mean(counts) == pytest.approx(100.0, rel=0.06)

    def test_expected_count_helper(self):
        sampler = make_sampler(rate_per_year=30.0, years=4.0)
        assert sampler.expected_count() == pytest.approx(120.0, rel=0.01)

    def test_lifecycle_scales_counts(self):
        flat = make_sampler(rate_per_year=40.0, years=6.0)
        doubled = make_sampler(
            rate_per_year=40.0, years=6.0, lifecycle=lambda age: 2.0
        )
        flat_counts = [len(sample(flat, generator(s))) for s in range(60)]
        doubled_counts = [len(sample(doubled, generator(s + 1000))) for s in range(60)]
        assert np.mean(doubled_counts) == pytest.approx(2 * np.mean(flat_counts), rel=0.1)

    def test_fitted_shape_recovers_base_shape_without_modulation(self):
        sampler = make_sampler(rate_per_year=3000.0, years=10.0, shape=0.7)
        events = sample(sampler, generator(11))
        gaps = np.diff(events)
        fit = fit_weibull(gaps[gaps > 0])
        assert fit.distribution.shape == pytest.approx(0.7, abs=0.05)


class TestModulationEffects:
    def test_diurnal_concentrates_failures_in_peak_hours(self):
        profile = WeeklyProfile(enabled=True)
        sampler = make_sampler(rate_per_year=2000.0, years=8.0, profile=profile)
        events = sample(sampler, generator(2))
        hours = (np.array(events) % SECONDS_PER_DAY) // 3600
        day = np.sum((hours >= 10) & (hours < 18))
        night = np.sum((hours >= 22) | (hours < 6))
        assert day > 1.4 * night

    def test_decaying_lifecycle_front_loads_failures(self):
        sampler = make_sampler(
            rate_per_year=500.0, years=10.0,
            lifecycle=lambda age: 3.0 if age < SECONDS_PER_YEAR else 1.0,
        )
        events = sample(sampler, generator(3))
        first_year = np.sum(events < SECONDS_PER_YEAR)
        later_mean = np.sum(events >= SECONDS_PER_YEAR) / 9.0
        assert first_year > 2.0 * later_mean

    def test_modulation_preserves_total_rate(self):
        # The weekly profile has mean 1, so it must not change counts.
        flat = make_sampler(rate_per_year=100.0, years=5.0)
        modulated = make_sampler(
            rate_per_year=100.0, years=5.0, profile=WeeklyProfile(enabled=True)
        )
        flat_counts = [len(sample(flat, generator(s))) for s in range(80)]
        mod_counts = [len(sample(modulated, generator(s + 500))) for s in range(80)]
        assert np.mean(mod_counts) == pytest.approx(np.mean(flat_counts), rel=0.07)
