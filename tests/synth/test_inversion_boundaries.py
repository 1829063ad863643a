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
vectorized and scalar twins agree bitwise there.  The last class runs
:func:`sample_arrivals` on inputs no synthesis golden reaches (a node
whose first chunk falls short of its capacity, a zero base rate, a
group where no node draws) against the reference engine's per-event
loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.records.timeutils import SECONDS_PER_HOUR, SECONDS_PER_WEEK
from repro.simulate.rng import RngStream
from repro.synth import arrivals
from repro.synth.arrivals import (
    build_arrival_grid,
    invert_operational,
    sample_arrivals,
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
        # sample_arrivals cuts at capacity first.
        capacity = float(grid.cumulative[-1])
        beyond = float(np.nextafter(capacity, np.inf))
        assert invert_one(grid, profile, beyond) is None

    def test_empty_totals(self, grid, profile):
        assert invert_operational(grid, profile, np.empty(0)).size == 0


@pytest.fixture(scope="module")
def flat_grid(profile):
    start, end = 1.5 * SECONDS_PER_WEEK, 6.0 * SECONDS_PER_WEEK
    return build_arrival_grid(
        profile, start, end, np.ones(len(week_grid(start, end)))
    )


def agree_with_reference(grid, profile, shape, base_rates, seed=0):
    """Run ``sample_arrivals`` over nodes ``0..n-1`` on one grid and
    assert each node's times equal the reference engine's on the same
    stream, as ``repr`` strings; returns the per-node counts."""
    root = RngStream(seed)
    paths = [("node", str(node)) for node in range(len(base_rates))]
    times, counts = sample_arrivals(
        root, paths, np.array(base_rates), [grid],
        np.zeros(len(base_rates), dtype=np.int64), shape, profile,
    )
    assert counts.sum() == len(times)
    for node, node_times in enumerate(np.split(times, np.cumsum(counts)[:-1])):
        reference = arrival_times(
            base_rates[node], shape, grid, profile, grid.end,
            root.spawn_generator(*paths[node]),
        )
        assert [repr(t) for t in reference] == [repr(float(t)) for t in node_times]
    return counts


class TestEngineAgreementAtBoundaries:
    def test_operational_cut_keeps_exact_capacity_total(self, grid):
        # sample_arrivals cuts with side="right": a total exactly equal
        # to capacity is kept (it still inverts inside the window grid)
        # — the scalar loop does the same before its end-of-window check
        # drops it.
        capacity = float(grid.cumulative[-1])
        totals = np.array([capacity * 0.5, capacity])
        count = int(np.searchsorted(totals, capacity, side="right"))
        assert count == 2

    def test_sample_paths_agree_bitwise(self, flat_grid, profile):
        # Three nodes on one grid, each against the reference engine's
        # per-event loop on its own stream.
        counts = agree_with_reference(flat_grid, profile, 0.8, [2e-6] * 3)
        assert counts.all(), "the window must hold failures to compare"

    def test_first_chunk_short_of_capacity_replays_the_stream(
        self, flat_grid, profile
    ):
        # At shape 0.3 the first 34 draws of nodes 70 and 353 (root seed
        # 0) sum to 60% and 31% of the expected count, so their running
        # totals end inside the capacity and the sampler must replay
        # their streams for more chunks; node 1 needs one chunk.
        capacity = float(flat_grid.cumulative[-1])
        rate = 8.0 / capacity
        chunk = max(32, int(1.25 * (capacity * rate)) + 24)
        rates = [0.0] * 354
        for node in (1, 70, 353):
            rates[node] = rate
        counts = agree_with_reference(flat_grid, profile, 0.3, rates)
        assert counts[353] > chunk
        assert counts[[1, 70, 353]].all()

    def test_draw_rounds_stay_capped(self, flat_grid, profile, monkeypatch):
        # Node 353 above needs a second round; with one allowed, the
        # sampler raises instead of returning a cut-short stream.
        monkeypatch.setattr(arrivals, "_MAX_DRAW_ROUNDS", 1)
        rates = [0.0] * 354
        rates[353] = 8.0 / float(flat_grid.cumulative[-1])
        with pytest.raises(RuntimeError, match="after 1 rounds"):
            agree_with_reference(flat_grid, profile, 0.3, rates)

    def test_zero_base_rate_beside_nonzero_draws_nothing(self, flat_grid, profile):
        counts = agree_with_reference(
            flat_grid, profile, 0.8, [2e-6, 0.0, 3e-6, 0.0]
        )
        assert counts[[1, 3]].tolist() == [0, 0]
        assert counts[[0, 2]].all()

    def test_group_where_no_node_draws(self, flat_grid, profile):
        counts = agree_with_reference(flat_grid, profile, 0.8, [0.0, 0.0, 0.0])
        assert counts.tolist() == [0, 0, 0]
        times, counts = sample_arrivals(
            RngStream(0), [], np.empty(0), [flat_grid],
            np.empty(0, dtype=np.int64), 0.8, profile,
        )
        assert times.size == 0 and counts.size == 0
