"""Boundary-value audit of the searchsorted inversions.

Two cumulative-table inversions drive arrival sampling:

* :meth:`WeeklyProfile.invert` / ``invert_array`` — position in the
  week from effective seconds (``side="right" - 1`` with an hour-index
  clamp);
* :func:`invert_operational` — wall-clock time from cumulative
  operational time (``side="left"`` over the weekly capacity grid),
  with the reference engine's per-event ``invert_one`` as its twin.

These tests pin the off-by-one-prone cases: targets exactly on a
bucket/week boundary, at zero, and at total mass — and assert the
vectorized and scalar twins agree bitwise there.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.records.timeutils import SECONDS_PER_HOUR, SECONDS_PER_WEEK
from repro.synth.arrivals import (
    ModulatedWeibullArrivals,
    build_arrival_grid,
    invert_operational,
    week_grid,
)
from repro.synth.diurnal import HOURS_PER_WEEK, WeeklyProfile

from tests.synth.reference_engine import arrival_times, invert_one


@pytest.fixture(scope="module")
def profile():
    return WeeklyProfile()


@pytest.fixture(scope="module")
def grid(profile):
    # A window starting mid-week (non-zero base0) spanning 4+ weeks.
    start = 1.5 * SECONDS_PER_WEEK
    end = 6.0 * SECONDS_PER_WEEK
    weeks = week_grid(start, end)
    levels = np.linspace(0.8, 1.3, len(weeks))
    return build_arrival_grid(profile, start, end, levels)


@pytest.fixture(scope="module")
def sampler(profile, grid):
    return ModulatedWeibullArrivals(
        base_rate=1e-6, shape=0.8, profile=profile,
        start=1.5 * SECONDS_PER_WEEK, end=6.0 * SECONDS_PER_WEEK,
        grid=grid,
    )


class TestWeeklyProfileInvert:
    def test_zero_maps_to_week_start(self, profile):
        assert profile.invert(0.0) == 0.0

    def test_total_mass_maps_to_week_end(self, profile):
        # The clamp keeps hour_index at 167; the remainder then walks
        # to the end of the last hour: no off-by-one past the table.
        # (profile.total is a float sum, so equality is to within ulps.)
        result = profile.invert(profile.total)
        assert result == pytest.approx(SECONDS_PER_WEEK, abs=1e-6)
        assert result <= SECONDS_PER_WEEK

    def test_target_exactly_on_hour_boundary(self, profile):
        # cumulative[i] must resolve to hour i's start, not hour i-1's
        # end via a stale remainder.
        for hour in (1, 24, 120, HOURS_PER_WEEK - 1):
            target = float(profile._cumulative[hour])
            assert profile.invert(target) == hour * SECONDS_PER_HOUR

    def test_roundtrip_through_cumulative(self, profile):
        positions = [0.0, 1.0, 3599.0, 3600.0, 90000.5, SECONDS_PER_WEEK]
        for position in positions:
            target = profile.cumulative_at(position)
            assert profile.invert(target) == pytest.approx(
                position, abs=1e-6
            )

    def test_out_of_range_rejected(self, profile):
        with pytest.raises(ValueError, match="outside"):
            profile.invert(-1.0)
        with pytest.raises(ValueError, match="outside"):
            profile.invert(profile.total * 1.01)

    def test_vectorized_bitwise_equals_scalar(self, profile):
        targets = np.array(
            [0.0, float(profile._cumulative[1]),
             float(profile._cumulative[24]),
             float(np.nextafter(profile._cumulative[24], 0.0)),
             profile.total / 3.0, profile.total]
        )
        vectorized = profile.invert_array(targets)
        scalar = np.array([profile.invert(t) for t in targets])
        assert vectorized.tolist() == scalar.tolist()  # bitwise

    def test_vectorized_range_check_matches_scalar(self, profile):
        with pytest.raises(ValueError, match="outside"):
            profile.invert_array(np.array([0.0, -1.0]))
        with pytest.raises(ValueError, match="outside"):
            profile.invert_array(np.array([profile.total * 1.01]))
        assert profile.invert_array(np.empty(0)).size == 0


class TestInvertOperational:
    def _boundary_totals(self, grid):
        cumulative = grid.cumulative
        capacity = float(cumulative[-1])
        return [
            float(np.nextafter(0.0, 1.0)),     # just past zero
            float(cumulative[0]),              # exactly first week boundary
            float(np.nextafter(cumulative[0], 0.0)),
            float(np.nextafter(cumulative[0], capacity)),
            float(cumulative[1]),              # interior week boundary
            0.5 * (float(cumulative[1]) + float(cumulative[2])),
            capacity,                          # exactly at total mass
            float(np.nextafter(capacity, 0.0)),
        ]

    def test_vectorized_bitwise_equals_scalar_at_boundaries(
        self, grid, profile
    ):
        totals = self._boundary_totals(grid)
        vectorized = invert_operational(grid, profile, np.array(totals))
        scalar = [invert_one(grid, profile, total) for total in totals]
        assert vectorized.tolist() == scalar  # bitwise, incl. boundaries

    def test_week_boundary_total_lands_in_that_week(self, grid, profile):
        # A total exactly equal to cumulative[i] consumes all of week
        # i's mass: the event lands at the very end of week i, which is
        # the start of week i+1 — not a week later.
        total = float(grid.cumulative[0])
        time = float(invert_operational(grid, profile, np.array([total]))[0])
        assert time == pytest.approx(
            float(grid.week_starts[1]), abs=1e-6
        )

    def test_monotone_across_boundaries(self, grid, profile):
        totals = np.sort(self._boundary_totals(grid))
        times = invert_operational(grid, profile, totals)
        assert np.all(np.diff(times) >= 0)

    def test_capacity_overflow_raises_not_indexerror(self, grid, profile):
        capacity = float(grid.cumulative[-1])
        beyond = float(np.nextafter(capacity, np.inf))
        with pytest.raises(ValueError, match="exceeds the grid's capacity"):
            invert_operational(grid, profile, np.array([beyond]))

    def test_scalar_returns_none_past_capacity(self, grid, profile):
        # The reference loop's sentinel for "window exhausted"; the
        # vectorized path never sees such totals because
        # sample_operational_totals cuts at capacity first.
        capacity = float(grid.cumulative[-1])
        beyond = float(np.nextafter(capacity, np.inf))
        assert invert_one(grid, profile, beyond) is None

    def test_empty_totals(self, grid, profile):
        assert invert_operational(grid, profile, np.empty(0)).size == 0


class TestEngineAgreementAtBoundaries:
    def test_operational_cut_keeps_exact_capacity_total(
        self, grid, profile, sampler
    ):
        # sample_operational_totals cuts with side="right": a total
        # exactly equal to capacity is kept (it still inverts inside
        # the window grid) — the scalar loop does the same before its
        # end-of-window check drops it.
        capacity = float(grid.cumulative[-1])
        totals = np.array([capacity * 0.5, capacity])
        count = int(np.searchsorted(totals, capacity, side="right"))
        assert count == 2

    def test_sample_paths_agree_bitwise(self, profile):
        # The generator's two stages — operational totals, then one
        # inversion, cut at the window end — against the reference
        # engine's per-event loop on the same stream.
        start = 1.5 * SECONDS_PER_WEEK
        end = 6.0 * SECONDS_PER_WEEK
        weeks = week_grid(start, end)
        grid = build_arrival_grid(profile, start, end, np.ones(len(weeks)))
        for seed in (0, 1, 2):
            sampler = ModulatedWeibullArrivals(
                base_rate=2e-6, shape=0.8, profile=profile,
                start=start, end=end, grid=grid,
            )
            totals = sampler.sample_operational_totals(
                np.random.Generator(np.random.PCG64(seed))
            )
            times = invert_operational(grid, profile, totals)
            vectorized = times[times < end]
            scalar = arrival_times(
                2e-6, 0.8, grid, profile, end,
                np.random.Generator(np.random.PCG64(seed)),
            )
            assert scalar, "the window must hold failures to compare"
            assert [repr(t) for t in scalar] == [
                repr(float(t)) for t in vectorized
            ]
