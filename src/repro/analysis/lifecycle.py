"""Failure rate over a system's lifetime (Figure 4, Section 5.2).

Figure 4 plots failures per month (stacked by root cause) against
system age and finds two shapes: infant-mortality decay (types E/F)
and a ramp peaking near 20 months (types D/G).  The paper notes both
differ from the textbook hardware "bathtub" and software
"drop-with-release-spikes" lifecycle curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.records.codes import CAUSE_CODE, CAUSE_VOCAB
from repro.records.record import HIGH_LEVEL_CAUSES, RootCause
from repro.records.timeutils import SECONDS_PER_MONTH
from repro.records.trace import FailureTrace
from repro.synth.lifecycle import LifecycleShape

__all__ = [
    "LifecycleCurve",
    "monthly_failures",
    "month_cause_counts",
    "curve_from_counts",
    "classify_lifecycle",
]


@dataclass(frozen=True)
class LifecycleCurve:
    """Failures per month for one system, stacked by root cause.

    Attributes
    ----------
    system_id:
        The system.
    months:
        Number of monthly bins (fixed-width, 30.4375 days).
    totals:
        Failures per month, length ``months``.
    by_cause:
        Root cause -> per-month counts (same length).
    """

    system_id: int
    months: int
    totals: Tuple[int, ...]
    by_cause: Dict[RootCause, Tuple[int, ...]]

    def smoothed(self, window: int = 6) -> np.ndarray:
        """Moving average of the totals (for shape classification)."""
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        values = np.asarray(self.totals, dtype=float)
        if len(values) < window:
            return values
        kernel = np.ones(window) / window
        return np.convolve(values, kernel, mode="valid")


def month_cause_counts(
    starts: np.ndarray, causes: np.ndarray, origin: float, months: int
) -> np.ndarray:
    """Failures per (month, cause code), shape ``(months, causes)``.

    Months are :func:`~repro.records.timeutils.month_index` bins from
    ``origin``, vectorized; starts past the last bin (end-of-window
    records) land in it.  No start may precede ``origin``.
    """
    bins = np.minimum(
        ((starts - origin) // SECONDS_PER_MONTH).astype(np.int64), months - 1
    )
    flat = bins * len(CAUSE_VOCAB) + causes
    return np.bincount(flat, minlength=months * len(CAUSE_VOCAB)).reshape(
        months, len(CAUSE_VOCAB)
    )


def curve_from_counts(system_id: int, counts: np.ndarray) -> LifecycleCurve:
    """A :class:`LifecycleCurve` from :func:`month_cause_counts` output."""
    return LifecycleCurve(
        system_id=system_id,
        months=len(counts),
        totals=tuple(int(v) for v in counts.sum(axis=1)),
        by_cause={
            cause: tuple(int(v) for v in counts[:, CAUSE_CODE[cause]])
            for cause in HIGH_LEVEL_CAUSES
        },
    )


def monthly_failures(trace: FailureTrace, system_id: int) -> LifecycleCurve:
    """Figure 4: failures per month of production age, by root cause."""
    config = trace.systems[system_id]
    start, end = config.production_window(trace.data_start, trace.data_end)
    n_months = int((end - start) // SECONDS_PER_MONTH) + 1
    rows = trace.filter_systems([system_id]).columns
    starts = rows["start_time"]
    early = starts < start
    if early.any():
        raise ValueError(
            f"timestamp {float(starts[np.argmax(early)])} precedes origin {start}"
        )
    return curve_from_counts(
        system_id, month_cause_counts(starts, rows["root_cause"], start, n_months)
    )


def classify_lifecycle(
    curve: LifecycleCurve,
    early_months: int = 8,
    peak_window: Tuple[int, int] = (12, 36),
    smoothing: int = 6,
) -> LifecycleShape:
    """Classify a lifecycle curve as infant-decay or ramp-peak.

    Heuristic matching the paper's visual classification: if the
    smoothed rate in the candidate peak window (months 12-36) exceeds
    the initial months' rate by at least 50%, the system ramped;
    otherwise it decayed from an early high.

    Raises
    ------
    ValueError
        If the curve is too short to classify (< ~2 years).
    """
    smoothed = curve.smoothed(smoothing)
    if len(smoothed) < peak_window[0] + smoothing:
        raise ValueError(
            f"system {curve.system_id}: {curve.months} months is too short to classify"
        )
    early = float(np.mean(smoothed[:early_months]))
    window_end = min(peak_window[1], len(smoothed))
    mid = float(np.max(smoothed[peak_window[0]:window_end]))
    if early <= 0:
        return LifecycleShape.RAMP_PEAK
    if mid >= 1.5 * early:
        return LifecycleShape.RAMP_PEAK
    return LifecycleShape.INFANT_DECAY
