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
cumulative table.  An :class:`ArrivalGrid` holds the cumulative
capacity over a production window's weeks; inverting ``Lambda`` is then
a single ``searchsorted`` plus the profile's within-week inversion
(:func:`invert_operational`).

:func:`sample_arrivals` samples a whole system's nodes in array passes;
only the draws are per node, because each node owns its stream.  Each
node draws one equilibrium uniform and one chunk of interarrivals sized
to over-draw past its window's capacity, into one zero-padded block of
nodes x widest chunk.  One row-wise ``cumsum`` gives every node's
running operational times, a count per row cuts them at capacity, and
the nodes sharing a grid (a Table 1 category) invert in one call.  The
rare node whose first chunk ends inside its capacity replays its stream
and draws further chunks.  The per-event loop these passes replaced is
kept in ``tests/synth/reference_engine.py``; for the same stream both
produce bit-identical timestamps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
from scipy import special

from repro.records.timeutils import SECONDS_PER_WEEK
from repro.simulate.rng import RngStream
from repro.synth.diurnal import WeeklyProfile

__all__ = [
    "ArrivalGrid",
    "build_arrival_grid",
    "invert_operational",
    "sample_arrivals",
    "week_grid",
]

# Hard cap on draw rounds per node; each round adds a chunk of
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
    nodes of a Table 1 category share one instance.  ``end`` is the
    window's end: failures inverted at or after it are cut.
    """

    week_starts: np.ndarray
    levels: np.ndarray
    base0: float
    cumulative: np.ndarray
    end: float


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
        end=float(end),
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


def sample_arrivals(
    root: RngStream,
    paths: Sequence[Tuple[str, ...]],
    base_rates: np.ndarray,
    grids: Sequence[ArrivalGrid],
    grid_index: np.ndarray,
    shape: float,
    profile: WeeklyProfile,
) -> Tuple[np.ndarray, np.ndarray]:
    """Failure times of a group of nodes, each drawn from its own stream.

    Node ``i`` draws from ``root``'s stream at ``paths[i]``, fails at
    ``base_rates[i]`` per operational second (its workload and
    heterogeneity multipliers included) and lives on
    ``grids[grid_index[i]]``.  Its stream gives one uniform for the
    equilibrium first interarrival, then unit-mean Weibull(``shape``)
    interarrivals in chunks that over-draw past the grid's capacity, so
    the stream must not be used for anything else.  Every node draws
    its first chunk in turn; a node whose first chunk ends inside its
    capacity is then replayed from a fresh generator for further
    chunks.  A node with a zero base rate draws nothing.

    Returns ``(times, counts)``: every node's failure times before its
    window end, node after node and ascending within a node, and the
    number of times per node.
    """
    base_rates = np.asarray(base_rates, dtype=float)
    grid_index = np.asarray(grid_index, dtype=np.int64)
    if base_rates.size and base_rates.min() < 0:
        raise ValueError(f"base_rate must be >= 0, got {base_rates.min()}")
    if not 0 < shape <= 2:
        raise ValueError(f"shape must be in (0, 2], got {shape}")
    counts = np.zeros(len(base_rates), dtype=np.int64)
    active = np.flatnonzero(base_rates > 0.0)
    if not active.size:
        return np.empty(0, dtype=float), counts
    rates = base_rates[active]
    capacity = np.array([grid.cumulative[-1] for grid in grids])[grid_index[active]]
    chunks = np.maximum(32, (1.25 * (capacity * rates)).astype(np.int64) + 24)
    chunk_list = chunks.tolist()

    # Unit-mean Weibull: X = scale * W(shape), scale = 1/Gamma(1 + 1/k).
    unit_scale = 1.0 / math.gamma(1.0 + 1.0 / shape)
    uniforms = np.empty(len(active))
    block = np.zeros((len(active), max(chunk_list)))
    streams = root.spawn_generators([paths[i] for i in active.tolist()])
    for row, (generator, chunk) in enumerate(zip(streams, chunk_list)):
        uniforms[row] = generator.random()
        block[row, 1:chunk] = generator.weibull(shape, chunk - 1)
    block[:, 1:] *= unit_scale
    block[:, 0] = _equilibrium_draws(uniforms, shape, unit_scale)
    block /= rates[:, None]
    # Accumulation runs along each row in order, so row i equals the
    # one-dimensional cumsum of node i's chunk, and the zero padding
    # repeats its last total.
    totals = np.cumsum(block, axis=1, out=block)
    within = totals <= capacity[:, None]
    short = np.flatnonzero(within[:, -1])
    within[short] = False
    counts[active] = within.sum(axis=1)
    flat = totals[within]
    if short.size:
        pieces = np.split(flat, np.cumsum(counts[active])[:-1])
        for row in short.tolist():
            pieces[row] = _replay(
                root.spawn_generator(*paths[active[row]]),
                totals[row, : chunk_list[row]],
                chunk_list[row],
                shape,
                unit_scale,
                float(rates[row]),
                float(capacity[row]),
            )
            counts[active[row]] = len(pieces[row])
        flat = np.concatenate(pieces)

    event_grid = np.repeat(grid_index, counts)
    times = np.empty(len(flat))
    for index, grid in enumerate(grids):
        members = event_grid == index
        times[members] = invert_operational(grid, profile, flat[members])
    ends = np.array([grid.end for grid in grids])
    keep = times < ends[event_grid]
    counts = np.bincount(
        np.repeat(np.arange(len(counts)), counts)[keep], minlength=len(counts)
    )
    return times[keep], counts


def _equilibrium_draws(
    uniforms: np.ndarray, shape: float, unit_scale: float
) -> np.ndarray:
    """First interarrivals from the equilibrium (stationary) renewal law.

    A renewal process observed from an arbitrary instant has its first
    interarrival distributed with density S(x)/mu, not f(x).  Starting
    in equilibrium removes the ordinary-renewal transient — for
    decreasing-hazard Weibulls that transient adds ~(C^2-1)/2 extra
    events per node and would bias every rate upward.  For a
    Weibull(k, lam) the equilibrium CDF is the regularized lower
    incomplete gamma gammainc(1/k, (x/lam)^k), inverted exactly via
    gammaincinv.  The power is libm's, one Python float at a time: the
    reference engine's per-event loop computes it so, and ``np.power``
    rounds differently for some inputs.
    """
    inverse = 1.0 / shape
    return np.array(
        [unit_scale * z**inverse for z in special.gammaincinv(inverse, uniforms).tolist()]
    )


def _replay(
    generator: np.random.Generator,
    first: np.ndarray,
    chunk: int,
    shape: float,
    unit_scale: float,
    rate: float,
    capacity: float,
) -> np.ndarray:
    """One node's running totals within ``capacity`` when its first
    chunk (running totals ``first``) ends inside it.

    ``generator`` starts at the node's initial state; it redraws the
    first chunk to reach the draws after it, then adds chunks of
    ``chunk`` interarrivals until the running total passes capacity.
    """
    generator.random()
    generator.weibull(shape, chunk - 1)
    parts: List[np.ndarray] = [first]
    carry = float(first[-1])
    for _ in range(_MAX_DRAW_ROUNDS - 1):
        increments = (unit_scale * generator.weibull(shape, chunk)) / rate
        # A seed element continues the running sum across chunks, so
        # the result stays bit-identical to one long sequential sum.
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
    totals = np.concatenate(parts)
    return totals[: int(np.searchsorted(totals, capacity, side="right"))]
