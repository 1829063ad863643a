"""Tests for the modulated Weibull arrival sampler."""

import numpy as np
import pytest

from repro.records.timeutils import SECONDS_PER_DAY, SECONDS_PER_WEEK, SECONDS_PER_YEAR
from repro.simulate.rng import RngStream
from repro.stats.fitting import fit_weibull
from repro.synth.arrivals import build_arrival_grid, sample_arrivals, week_grid
from repro.synth.diurnal import WeeklyProfile


def make_grid(years=10.0, lifecycle=lambda age: 1.0, profile=None, start=0.0):
    """The capacity grid of ``[start, start + years)``, with the lifecycle
    level of each week taken at its midpoint."""
    profile = profile if profile is not None else WeeklyProfile(enabled=False)
    end = start + years * SECONDS_PER_YEAR
    mids = week_grid(start, end) + 0.5 * SECONDS_PER_WEEK
    levels = [lifecycle(max(0.0, mid - start)) for mid in mids]
    return build_arrival_grid(profile, start, end, levels), profile


def sample(rate_per_year=50.0, shape=0.85, years=10.0, lifecycle=lambda age: 1.0,
           profile=None, seed=0, replicas=1):
    """Failure times of ``replicas`` nodes with the same rate and window,
    each drawn from its own stream; one array per node."""
    grid, profile = make_grid(years, lifecycle, profile)
    times, counts = sample_arrivals(
        RngStream(seed),
        [("node", str(replica)) for replica in range(replicas)],
        np.full(replicas, rate_per_year / SECONDS_PER_YEAR),
        [grid],
        np.zeros(replicas, dtype=np.int64),
        shape,
        profile,
    )
    return np.split(times, np.cumsum(counts)[:-1])


class TestBasics:
    def test_events_sorted_and_in_window(self):
        (events,) = sample()
        assert events.size > 100
        assert np.all(np.diff(events) >= 0)
        assert np.all((0.0 <= events) & (events < 10 * SECONDS_PER_YEAR))

    def test_zero_rate_yields_nothing(self):
        (events,) = sample(rate_per_year=0.0)
        assert events.size == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="base_rate"):
            sample(rate_per_year=-1.0)
        with pytest.raises(ValueError, match="shape"):
            sample(shape=0.0)
        with pytest.raises(ValueError, match="empty window"):
            build_arrival_grid(
                WeeklyProfile(enabled=False), 10.0, 5.0, np.ones(1)
            )

    def test_nonpositive_lifecycle_rejected_at_sampling(self):
        with pytest.raises(ValueError, match="lifecycle multiplier"):
            sample(lifecycle=lambda age: 0.0)


class TestRateCalibration:
    def test_equilibrium_start_gives_unbiased_counts(self):
        """The stationary start removes the DFR renewal transient: the
        mean count over many replicas must match base_rate * window."""
        nodes = sample(rate_per_year=20.0, years=5.0, shape=0.7, replicas=300)
        assert np.mean([len(events) for events in nodes]) == pytest.approx(
            100.0, rel=0.06
        )

    def test_lifecycle_scales_counts(self):
        flat = sample(rate_per_year=40.0, years=6.0, replicas=60)
        doubled = sample(
            rate_per_year=40.0, years=6.0, lifecycle=lambda age: 2.0,
            seed=1000, replicas=60,
        )
        flat_counts = [len(events) for events in flat]
        doubled_counts = [len(events) for events in doubled]
        assert np.mean(doubled_counts) == pytest.approx(2 * np.mean(flat_counts), rel=0.1)

    def test_fitted_shape_recovers_base_shape_without_modulation(self):
        (events,) = sample(rate_per_year=3000.0, years=10.0, shape=0.7, seed=11)
        gaps = np.diff(events)
        fit = fit_weibull(gaps[gaps > 0])
        assert fit.distribution.shape == pytest.approx(0.7, abs=0.05)


class TestModulationEffects:
    def test_diurnal_concentrates_failures_in_peak_hours(self):
        (events,) = sample(
            rate_per_year=2000.0, years=8.0, profile=WeeklyProfile(enabled=True),
            seed=2,
        )
        hours = (np.array(events) % SECONDS_PER_DAY) // 3600
        day = np.sum((hours >= 10) & (hours < 18))
        night = np.sum((hours >= 22) | (hours < 6))
        assert day > 1.4 * night

    def test_decaying_lifecycle_front_loads_failures(self):
        (events,) = sample(
            rate_per_year=500.0, years=10.0,
            lifecycle=lambda age: 3.0 if age < SECONDS_PER_YEAR else 1.0,
            seed=3,
        )
        first_year = np.sum(events < SECONDS_PER_YEAR)
        later_mean = np.sum(events >= SECONDS_PER_YEAR) / 9.0
        assert first_year > 2.0 * later_mean

    def test_modulation_preserves_total_rate(self):
        # The weekly profile has mean 1, so it must not change counts.
        flat = sample(rate_per_year=100.0, years=5.0, replicas=80)
        modulated = sample(
            rate_per_year=100.0, years=5.0, profile=WeeklyProfile(enabled=True),
            seed=500, replicas=80,
        )
        flat_counts = [len(events) for events in flat]
        mod_counts = [len(events) for events in modulated]
        assert np.mean(mod_counts) == pytest.approx(np.mean(flat_counts), rel=0.07)
