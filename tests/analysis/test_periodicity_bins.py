"""Figure 5's vectorized bins against the scalar time functions.

:func:`~repro.analysis.periodicity.period_counts` must put every start
where :func:`~repro.records.timeutils.hour_of_day` and
:func:`~repro.records.timeutils.day_of_week` put it, row by row: on
hour and day boundaries, one ulp either side of them, at fractional
starts, and up to 2**40 s.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis.periodicity import period_counts
from repro.records.timeutils import (
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    day_of_week,
    hour_of_day,
)

TOP = 2.0**40


def _boundaries(step: float, count: int, seed: int) -> np.ndarray:
    """Positive multiples of ``step`` up to 2**40 s, each with its two
    ulp neighbours."""
    rng = np.random.default_rng(seed)
    exact = rng.integers(1, int(TOP // step), count).astype(float) * step
    exact = np.concatenate([exact, np.arange(1, 50) * step])
    return np.concatenate(
        [exact, np.nextafter(exact, np.inf), np.nextafter(exact, -np.inf)]
    )


def _assert_row_by_row(starts: np.ndarray) -> None:
    for start in starts.tolist():
        one = np.asarray([start])
        hours, days = period_counts(one)
        assert hours.sum() == days.sum() == 1
        assert int(np.argmax(hours)) == hour_of_day(start), start
        assert int(np.argmax(days)) == day_of_week(start), start


def test_hour_boundaries():
    _assert_row_by_row(_boundaries(SECONDS_PER_HOUR, 400, 1))


def test_day_boundaries():
    _assert_row_by_row(_boundaries(SECONDS_PER_DAY, 400, 2))


@settings(max_examples=200, deadline=None)
@given(
    starts=st.lists(
        st.floats(0.0, TOP) | st.floats(1.3e7, 3.2e8), min_size=1, max_size=30
    )
)
def test_fractional_starts(starts):
    starts = np.asarray(starts)
    _assert_row_by_row(starts)
    hours = np.bincount([hour_of_day(t) for t in starts], minlength=24)
    days = np.bincount([day_of_week(t) for t in starts], minlength=7)
    got_hours, got_days = period_counts(starts)
    assert got_hours.tolist() == hours.tolist()
    assert got_days.tolist() == days.tolist()
