"""Time representation and calendar helpers.

All timestamps in the toolkit are **seconds since the epoch origin**
``1996-01-01 00:00:00 UTC`` (:data:`EPOCH`), stored as floats.  The LANL
remedy database opened in June 1996 and the released data ends in
November 2005, so every timestamp of interest is a comfortable positive
number.

The paper's periodicity analysis (Figure 5) needs hour-of-day and
day-of-week; the lifecycle analysis (Figure 4) needs months-in-
production.  Helpers below compute these **without consulting the host
timezone**: every conversion is plain arithmetic against the fixed
:data:`EPOCH` origin, so results are byte-identical no matter what
``TZ`` the process runs under and never shift across DST transitions.
The trace's wall-clock labels are interpreted as a single fixed clock
(call it UTC), matching how the remedy database recorded times at
LANL; timezone-*aware* datetimes passed to :func:`from_datetime` are
first converted to UTC so mixed-zone inputs land on the same axis.
"""

from __future__ import annotations

import datetime as _dt
from typing import Optional, Tuple

__all__ = [
    "EPOCH",
    "SECONDS_PER_MINUTE",
    "SECONDS_PER_HOUR",
    "SECONDS_PER_DAY",
    "SECONDS_PER_WEEK",
    "SECONDS_PER_MONTH",
    "SECONDS_PER_YEAR",
    "from_datetime",
    "hour_of_day",
    "day_of_week",
    "month_index",
    "parse_month_year",
]

#: The origin of toolkit time: 1996-01-01 00:00:00 UTC, stored naive.
#: All arithmetic against it is timezone-free by construction.
EPOCH = _dt.datetime(1996, 1, 1, 0, 0, 0)

SECONDS_PER_MINUTE = 60.0
SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY
#: Average month length; used only for binning failures-per-month curves.
SECONDS_PER_MONTH = 30.4375 * SECONDS_PER_DAY
#: Average Gregorian year (365.25 days); used for failures-per-year rates.
SECONDS_PER_YEAR = 365.25 * SECONDS_PER_DAY

#: EPOCH was a Monday; weekday index of the origin (Monday=0 ... Sunday=6).
_EPOCH_WEEKDAY = EPOCH.weekday()


def from_datetime(when: _dt.datetime) -> float:
    """Convert a :class:`datetime.datetime` to a toolkit timestamp.

    Naive datetimes are taken as already being on the toolkit's fixed
    UTC axis.  Timezone-aware datetimes are converted to UTC first, so
    ``2004-06-01 14:00 -0600`` and ``2004-06-01 20:00 UTC`` map to the
    same timestamp.
    """
    if when.tzinfo is not None:
        when = when.astimezone(_dt.timezone.utc).replace(tzinfo=None)
    return (when - EPOCH).total_seconds()


def hour_of_day(timestamp: float) -> int:
    """The UTC hour (0-23) into which ``timestamp`` falls.

    Computed by modular arithmetic on the timestamp itself — no
    ``localtime``/DST involvement, so the answer is independent of the
    host ``TZ`` environment.
    """
    seconds_into_day = float(timestamp) % SECONDS_PER_DAY
    return int(seconds_into_day // SECONDS_PER_HOUR)


def day_of_week(timestamp: float) -> int:
    """UTC weekday index of ``timestamp``: Monday=0 ... Sunday=6.

    Like :func:`hour_of_day`, derived purely from the timestamp and
    the fixed epoch weekday — independent of the host timezone.
    """
    days = int(float(timestamp) // SECONDS_PER_DAY)
    return (days + _EPOCH_WEEKDAY) % 7


def month_index(timestamp: float, origin: float = 0.0) -> int:
    """Zero-based month bin of ``timestamp`` counted from ``origin``.

    Months are fixed-width bins of :data:`SECONDS_PER_MONTH`; this is
    the binning used for failures-per-month lifecycle curves (Figure 4),
    where calendar-exact month boundaries are irrelevant.
    """
    delta = float(timestamp) - float(origin)
    if delta < 0:
        raise ValueError(f"timestamp {timestamp} precedes origin {origin}")
    return int(delta // SECONDS_PER_MONTH)


def parse_month_year(text: str, end_of_month: bool = False) -> Optional[float]:
    """Parse Table 1 production-date strings like ``"04/01"``.

    LANL's Table 1 gives production windows as MM/YY.  Years 90-99 map
    to 199x, years 00-89 to 20xx.  ``"N/A"`` and ``"now"`` return None —
    the inventory substitutes the data-collection window boundaries.

    Parameters
    ----------
    text:
        A ``MM/YY`` string, ``"N/A"`` or ``"now"`` (case-insensitive).
    end_of_month:
        If True, return the first instant of the *following* month, so
        the window ``[start, end)`` includes the whole end month.
    """
    cleaned = text.strip().lower()
    if cleaned in ("n/a", "na", "now", ""):
        return None
    month_text, _, year_text = cleaned.partition("/")
    month = int(month_text)
    year_two = int(year_text)
    year = 1900 + year_two if year_two >= 90 else 2000 + year_two
    if not 1 <= month <= 12:
        raise ValueError(f"invalid month in date string {text!r}")
    if end_of_month:
        month += 1
        if month == 13:
            month = 1
            year += 1
    return from_datetime(_dt.datetime(year, month, 1))


def production_window(
    start_text: str, end_text: str, data_start: float, data_end: float
) -> Tuple[float, float]:
    """Resolve a Table 1 production window against the data window.

    ``"N/A"`` starts clamp to ``data_start`` (the remedy database
    opening); ``"now"`` ends clamp to ``data_end`` (November 2005).
    """
    start = parse_month_year(start_text)
    end = parse_month_year(end_text, end_of_month=True)
    resolved_start = data_start if start is None else max(start, data_start)
    resolved_end = data_end if end is None else min(end, data_end)
    if resolved_end <= resolved_start:
        raise ValueError(
            f"empty production window: {start_text!r} .. {end_text!r} "
            f"resolves to [{resolved_start}, {resolved_end})"
        )
    return resolved_start, resolved_end
