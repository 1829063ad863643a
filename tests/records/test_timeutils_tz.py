"""Timezone independence of the time helpers and periodicity studies.

The Figure 5 analyses bin by hour-of-day and day-of-week.  Those bins
must be pure functions of the toolkit timestamp: a study run on a host
in Auckland, with DST in effect, must be byte-identical to one run in
UTC.  The conversions are modular arithmetic against a fixed epoch, so
the host ``TZ`` never enters — these tests force non-UTC zones in a
subprocess (where libc actually honors ``TZ``) and assert identity.
"""

from __future__ import annotations

import datetime as dt
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.records import timeutils as tu

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

# A probe that exercises every timezone-sensitive surface and prints a
# deterministic digest of the results.
_PROBE = """
import json
import time

from repro.analysis.periodicity import failures_by_hour, failures_by_weekday
from repro.records import timeutils as tu
from repro.records.record import FailureRecord, RootCause
from repro.records.trace import FailureTrace

time.tzset()  # make libc honor the TZ this subprocess was given

stamps = [0.0, 3599.0, 3600.0, 86399.0, 86400.0, 1.5e8, 2.123456e8]
records = [
    FailureRecord(start_time=1.5e8 + 9931.0 * i, end_time=1.5e8 + 9931.0 * i + 60.0,
                  system_id=20, node_id=i % 4, root_cause=RootCause.HARDWARE)
    for i in range(500)
]
trace = FailureTrace(records)
print(json.dumps({
    "hours": [tu.hour_of_day(s) for s in stamps],
    "weekdays": [tu.day_of_week(s) for s in stamps],
    "by_hour": failures_by_hour(trace).tolist(),
    "by_weekday": failures_by_weekday(trace).tolist(),
}, sort_keys=True))
"""


def _run_probe(tz):
    env = dict(os.environ, TZ=tz, PYTHONPATH=REPO_SRC)
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True, env=env, check=True,
    )
    return result.stdout


class TestForcedTimezone:
    @pytest.mark.parametrize(
        "tz",
        [
            "Pacific/Auckland",       # UTC+12/+13 with DST
            "America/Los_Angeles",    # UTC-8/-7 with DST
            "Asia/Kathmandu",         # UTC+5:45, non-whole-hour offset
        ],
    )
    def test_periodicity_bytes_identical_to_utc(self, tz):
        assert _run_probe(tz) == _run_probe("UTC")


class TestExplicitUtcSemantics:
    def test_hour_of_day_is_modular_arithmetic(self):
        assert tu.hour_of_day(0.0) == 0
        assert tu.hour_of_day(3600.0) == 1
        assert tu.hour_of_day(86400.0 + 13 * 3600.0 + 59.0) == 13

    def test_day_of_week_anchored_at_epoch_monday(self):
        assert tu.day_of_week(0.0) == 0  # 1996-01-01 was a Monday
        assert tu.day_of_week(5 * 86400.0) == 5
        assert tu.day_of_week(7 * 86400.0) == 0

    def test_from_datetime_accepts_aware_input(self):
        naive_utc = dt.datetime(2004, 6, 1, 20, 0, 0)
        aware_utc = naive_utc.replace(tzinfo=dt.timezone.utc)
        aware_offset = dt.datetime(
            2004, 6, 1, 14, 0, 0,
            tzinfo=dt.timezone(dt.timedelta(hours=-6)),
        )
        expected = tu.from_datetime(naive_utc)
        assert tu.from_datetime(aware_utc) == expected
        assert tu.from_datetime(aware_offset) == expected
