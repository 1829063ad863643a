"""Failure rates by hour of day and day of week (Figure 5).

The paper finds peak-hour failure rates about twice the overnight
minimum and weekday rates nearly twice weekend rates, and interprets
both as correlation between failure rate and workload
intensity/variety.  It explicitly rules out delayed detection (there
is no Monday spike; detection is automated).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.analysis.errors import DegenerateSampleError
from repro.records.timeutils import _EPOCH_WEEKDAY, SECONDS_PER_HOUR
from repro.records.trace import FailureTrace

__all__ = [
    "failures_by_hour",
    "failures_by_weekday",
    "period_counts",
    "PeriodicityStudy",
    "periodicity_study",
    "periodicity_from_counts",
]

WEEKDAY_NAMES = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")


def period_counts(starts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Start times counted per hour of day (length 24) and per weekday,
    Monday first (length 7), as :func:`~repro.records.timeutils.hour_of_day`
    and :func:`~repro.records.timeutils.day_of_week` bin them.

    A start's whole hours since the epoch are its quotient by 3600,
    floored, less one where rounding carried it up to the next hour
    (exact below 2**53 s).  A non-finite start raises the ``ValueError``
    that binning it has always raised.
    """
    if not np.isfinite(starts).all():
        raise ValueError("'list' argument must have no negative elements")
    hours = np.floor(starts / SECONDS_PER_HOUR)
    hours -= hours * SECONDS_PER_HOUR > starts
    hours = hours.astype(np.int64)
    days = hours // 24
    return (
        np.bincount(hours - 24 * days, minlength=24),
        np.bincount((days + _EPOCH_WEEKDAY) % 7, minlength=7),
    )


def failures_by_hour(trace: FailureTrace) -> np.ndarray:
    """Figure 5 (left): failure counts per hour of day (length 24)."""
    return period_counts(trace.columns["start_time"])[0]


def failures_by_weekday(trace: FailureTrace) -> np.ndarray:
    """Figure 5 (right): failure counts per weekday, Monday first."""
    return period_counts(trace.columns["start_time"])[1]


@dataclass(frozen=True)
class PeriodicityStudy:
    """Both Figure 5 panels plus the paper's headline ratios.

    Attributes
    ----------
    hourly:
        Counts per hour of day (24 values).
    weekday:
        Counts per day of week (Monday first, 7 values).
    peak_trough_ratio:
        Max/min of the hourly counts (~2 in the paper).
    weekday_weekend_ratio:
        Mean weekday count / mean weekend count (~2 in the paper).
    monday_spike:
        Monday count / mean of Tuesday-Friday.  Near 1 rules out the
        delayed-detection explanation, as in the paper.
    """

    hourly: Tuple[int, ...]
    weekday: Tuple[int, ...]
    peak_trough_ratio: float
    weekday_weekend_ratio: float
    monday_spike: float

    @property
    def peak_hour(self) -> int:
        """Hour of day with the most failures."""
        return int(np.argmax(self.hourly))

    @property
    def trough_hour(self) -> int:
        """Hour of day with the fewest failures."""
        return int(np.argmin(self.hourly))


def periodicity_study(trace: FailureTrace) -> PeriodicityStudy:
    """Compute Figure 5 and its ratios for a trace."""
    return periodicity_from_counts(*period_counts(trace.columns["start_time"]))


def periodicity_from_counts(
    hourly: np.ndarray, weekday: np.ndarray
) -> PeriodicityStudy:
    """Figure 5's study from its hour-of-day and weekday counts."""
    if hourly.min() == 0 or weekday.min() == 0:
        raise DegenerateSampleError("trace too small for a periodicity study (empty bins)")
    weekday_mean = float(np.mean(weekday[:5]))
    weekend_mean = float(np.mean(weekday[5:]))
    return PeriodicityStudy(
        hourly=tuple(int(v) for v in hourly),
        weekday=tuple(int(v) for v in weekday),
        peak_trough_ratio=float(hourly.max() / hourly.min()),
        weekday_weekend_ratio=weekday_mean / weekend_mean,
        monday_spike=float(weekday[0] / np.mean(weekday[1:5])),
    )
