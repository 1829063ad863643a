"""Modulated Weibull-renewal arrival sampling.

The paper finds the time between failures is Weibull with shape 0.7-0.8
(decreasing hazard), while failure *rates* vary with system age
(Figure 4) and time of week (Figure 5).  To produce both properties at
once we use **time rescaling**:

1. Draw interarrivals from a unit-mean Weibull renewal process in
   *operational time*.
2. Map operational time ``u`` to wall-clock time ``t`` through the
   inverse of the cumulative modulated rate
   ``Lambda(t) = base_rate * integral_0^t L(age(s)) * W(s) ds``,
   where ``L`` is the lifecycle multiplier and ``W`` the weekly
   profile.

``L`` is treated as constant within a calendar week (it varies on a
monthly scale), so ``Lambda`` is piecewise linear in the profile's
cumulative table.  The sampler precomputes one cumulative-capacity
array over the production window's weeks; inverting ``Lambda`` is then
a single ``searchsorted`` plus the profile's within-week inversion.

Sampling is two array stages:
:meth:`ModulatedWeibullArrivals.sample_operational_totals` draws whole
chunks of interarrivals and returns the running operational times
within the window's capacity, and :func:`invert_operational` maps them
to wall-clock times.  The trace generator runs the stages separately
so that every node of a Table 1 category, which share one grid,
inverts in a single call.  A node's failure times are the inverted
times before its window end.  The per-event loop they replaced is kept
in ``tests/synth/reference_engine.py``; for the same generator state
both produce bit-identical timestamps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np
from scipy import special

from repro.records.timeutils import SECONDS_PER_WEEK
from repro.synth.diurnal import WeeklyProfile

__all__ = [
    "ModulatedWeibullArrivals",
    "ArrivalGrid",
    "build_arrival_grid",
    "invert_operational",
    "week_grid",
]

# Hard cap on vectorized draw rounds; each round adds a chunk of
# unit-mean interarrivals, so hitting this means the capacity budget is
# astronomically larger than the expectation (a bug, not bad luck).
_MAX_DRAW_ROUNDS = 10_000


def week_grid(start: float, end: float) -> np.ndarray:
    """Start timestamps of the calendar weeks covering ``[start, end)``.

    The grid is anchored at the toolkit epoch (week boundaries at
    integer multiples of one week), matching the anchoring of
    :class:`~repro.synth.diurnal.WeeklyProfile`.
    """
    if end <= start:
        raise ValueError(f"empty window [{start}, {end})")
    first_index = math.floor(start / SECONDS_PER_WEEK)
    n_weeks = max(math.ceil(end / SECONDS_PER_WEEK) - first_index, 1)
    return (first_index + np.arange(n_weeks)) * SECONDS_PER_WEEK


@dataclass(frozen=True)
class ArrivalGrid:
    """Precomputed weekly capacity grid for one production window.

    ``cumulative[i]`` is the total operational capacity (effective
    seconds weighted by the week's lifecycle level) from the window
    start through the end of week ``i``.  The grid depends only on the
    window and the level table — not on a node's base rate — so all
    nodes of a Table 1 category share one instance.
    """

    week_starts: np.ndarray
    levels: np.ndarray
    base0: float
    cumulative: np.ndarray


def build_arrival_grid(
    profile: WeeklyProfile, start: float, end: float, levels: np.ndarray
) -> ArrivalGrid:
    """Build the capacity grid for a window from per-week levels."""
    week_starts = week_grid(start, end)
    levels = np.asarray(levels, dtype=float)
    if levels.shape != week_starts.shape:
        raise ValueError(
            f"levels has shape {levels.shape}, expected {week_starts.shape} "
            "for this window"
        )
    if levels.size and levels.min() <= 0:
        raise ValueError(
            f"lifecycle multiplier must be positive, got {levels.min()}"
        )
    base0 = profile.cumulative_at(start - week_starts[0])
    effective = np.full(len(week_starts), profile.total)
    effective[0] = profile.total - base0
    return ArrivalGrid(
        week_starts=week_starts,
        levels=levels,
        base0=base0,
        cumulative=np.cumsum(levels * effective),
    )


def invert_operational(
    grid: ArrivalGrid, profile: WeeklyProfile, totals: np.ndarray
) -> np.ndarray:
    """Map cumulative operational times to wall-clock timestamps.

    All ``totals`` must lie within the grid's capacity (callers cut at
    ``grid.cumulative[-1]`` first); totals past capacity raise
    ``ValueError`` rather than indexing off the end of the grid.
    Elementwise, so totals from many nodes sharing one grid can be
    inverted in a single call — the trace generator batches a whole
    Table 1 category this way.

    Boundary semantics (``side="left"``): a total exactly on a week
    boundary ``cumulative[i]`` resolves to week ``i`` with the full
    week's mass consumed — identical to the per-event inversion of the
    reference engine, which the boundary tests assert bitwise.
    """
    if totals.size == 0:
        return np.empty(0, dtype=float)
    cumulative = grid.cumulative
    capacity = cumulative[-1]
    overflow = float(np.max(totals))
    if overflow > capacity:
        raise ValueError(
            f"operational total {overflow} exceeds the grid's capacity "
            f"{capacity}; cut totals at grid.cumulative[-1] before inverting"
        )
    index = np.searchsorted(cumulative, totals, side="left")
    previous = np.where(index > 0, cumulative[np.maximum(index - 1, 0)], 0.0)
    base = np.where(index == 0, grid.base0, 0.0)
    target = base + (totals - previous) / grid.levels[index]
    return grid.week_starts[index] + profile.invert_array(target)


class ModulatedWeibullArrivals:
    """Sample failure times for one node.

    Parameters
    ----------
    base_rate:
        Long-run failures per second for this node (already including
        the node's workload and heterogeneity multipliers).
    shape:
        Weibull shape of the renewal process (< 1 for decreasing
        hazard).
    lifecycle:
        Callable mapping *node age in seconds* to the lifecycle
        multiplier L (dimensionless, ~1).  May be omitted when
        ``levels`` is given.
    profile:
        The shared :class:`WeeklyProfile` (periodic modulation W).
    start / end:
        The node's production window (absolute toolkit seconds).
    levels:
        Optional precomputed per-week lifecycle levels, one per week of
        ``week_grid(start, end)``, evaluated at week midpoints.
    grid:
        Optional fully prebuilt :class:`ArrivalGrid` for this window.
        The trace generator passes one shared grid for all nodes of a
        Table 1 category (the grid does not depend on ``base_rate``),
        skipping per-node grid construction entirely.
    """

    def __init__(
        self,
        base_rate: float,
        shape: float,
        lifecycle: Optional[Callable[[float], float]] = None,
        profile: Optional[WeeklyProfile] = None,
        start: float = 0.0,
        end: float = 0.0,
        levels: Optional[np.ndarray] = None,
        grid: Optional[ArrivalGrid] = None,
    ) -> None:
        if base_rate < 0:
            raise ValueError(f"base_rate must be >= 0, got {base_rate}")
        if not 0 < shape <= 2:
            raise ValueError(f"shape must be in (0, 2], got {shape}")
        if end <= start:
            raise ValueError(f"empty window [{start}, {end})")
        if profile is None:
            raise ValueError("profile is required")
        if lifecycle is None and levels is None and grid is None:
            raise ValueError("one of lifecycle, levels, or grid must be given")
        self._base_rate = base_rate
        self._shape = shape
        self._lifecycle = lifecycle
        self._profile = profile
        self._start = start
        self._end = end
        self._given_levels = levels
        # Unit-mean Weibull: X = scale * W(shape) with scale = 1/Gamma(1+1/k).
        self._unit_scale = 1.0 / math.gamma(1.0 + 1.0 / shape)
        # Grid state, built lazily (unless prebuilt) so that invalid
        # lifecycle levels are reported at sampling time (the
        # documented contract).
        self._grid = grid

    # ------------------------------------------------------------------
    # Weekly capacity grid
    # ------------------------------------------------------------------

    def _ensure_grid(self) -> ArrivalGrid:
        """Build (or fetch) the per-week capacity grid."""
        if self._grid is not None:
            return self._grid
        if self._given_levels is not None:
            levels = np.asarray(self._given_levels, dtype=float)
        else:
            week_starts = week_grid(self._start, self._end)
            levels = np.empty(len(week_starts))
            for i, week_start in enumerate(week_starts):
                mid_age = max(
                    0.0, (week_start + 0.5 * SECONDS_PER_WEEK) - self._start
                )
                levels[i] = self._lifecycle(mid_age)
        self._grid = build_arrival_grid(
            self._profile, self._start, self._end, levels
        )
        return self._grid

    # ------------------------------------------------------------------
    # Draws
    # ------------------------------------------------------------------

    def _equilibrium_draw(self, generator: np.random.Generator) -> float:
        """First interarrival from the equilibrium (stationary) renewal law.

        A renewal process observed from an arbitrary instant has its
        first interarrival distributed with density S(x)/mu, not f(x).
        Starting in equilibrium removes the ordinary-renewal transient —
        for decreasing-hazard Weibulls that transient adds ~(C^2-1)/2
        extra events per node and would bias every rate upward.  For a
        Weibull(k, lam) the equilibrium CDF is the regularized lower
        incomplete gamma gammainc(1/k, (x/lam)^k), inverted exactly via
        gammaincinv.
        """
        u = float(generator.random())
        z = float(special.gammaincinv(1.0 / self._shape, u))
        return self._unit_scale * z ** (1.0 / self._shape)

    def sample_operational_totals(
        self, generator: np.random.Generator
    ) -> np.ndarray:
        """Cumulative operational times of all events within capacity.

        The draw stage; :func:`invert_operational` over the window's
        grid is the inversion stage.  Draws come in chunks that over-draw past
        the capacity, so the generator's stream must not be reused for
        anything else.
        """
        if self._base_rate == 0.0:
            return np.empty(0, dtype=float)
        grid = self._ensure_grid()
        capacity = float(grid.cumulative[-1])
        expected = capacity * self._base_rate
        chunk = max(32, int(1.25 * expected) + 24)
        parts: List[np.ndarray] = []
        carry = 0.0
        first = True
        for _ in range(_MAX_DRAW_ROUNDS):
            if first:
                increments = np.empty(chunk)
                increments[0] = self._equilibrium_draw(generator) / self._base_rate
                increments[1:] = (
                    self._unit_scale * generator.weibull(self._shape, chunk - 1)
                ) / self._base_rate
                first = False
                # A plain cumsum seeds the running total with
                # increments[0], exactly like a per-event loop's first
                # ``total += draw``.
                totals = np.cumsum(increments)
            else:
                increments = (
                    self._unit_scale * generator.weibull(self._shape, chunk)
                ) / self._base_rate
                # Continue the running sum across chunks with a seed
                # element so the result stays bit-identical to one long
                # sequential sum.
                totals = np.cumsum(np.concatenate(([carry], increments)))[1:]
            parts.append(totals)
            carry = float(totals[-1])
            if carry > capacity:
                break
        else:
            raise RuntimeError(
                "arrival sampling failed to cover the window capacity "
                f"after {_MAX_DRAW_ROUNDS} rounds"
            )
        totals = parts[0] if len(parts) == 1 else np.concatenate(parts)
        count = int(np.searchsorted(totals, capacity, side="right"))
        return totals[:count]

    def expected_count(self, resolution_weeks: int = 1) -> float:
        """Approximate expected number of failures in the window.

        Integrates base * L numerically (W has weekly mean 1); useful
        for calibration tests.
        """
        if self._lifecycle is None:
            grid = self._ensure_grid()
            effective = np.full(len(grid.week_starts), self._profile.total)
            effective[0] = self._profile.total - grid.base0
            # Truncate the final partial week to the window end.
            last_start = float(grid.week_starts[-1])
            if self._end < last_start + SECONDS_PER_WEEK:
                effective[-1] -= self._profile.total - self._profile.cumulative_at(
                    self._end - last_start
                )
            return float(self._base_rate * np.sum(grid.levels * effective))
        step = resolution_weeks * SECONDS_PER_WEEK
        total = 0.0
        t = self._start
        while t < self._end:
            upper = min(t + step, self._end)
            mid_age = 0.5 * (t + upper) - self._start
            total += self._base_rate * self._lifecycle(mid_age) * (upper - t)
            t = upper
        return total
