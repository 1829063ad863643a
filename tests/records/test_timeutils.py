"""Tests for repro.records.timeutils."""

import datetime as dt

import pytest
from hypothesis import given, strategies as st

from repro.records import timeutils as tu


class TestConversions:
    def test_epoch_is_zero(self):
        assert tu.from_datetime(tu.EPOCH) == 0.0

    def test_roundtrip(self):
        when = dt.datetime(2003, 7, 15, 13, 45, 30)
        assert tu.to_datetime(tu.from_datetime(when)) == when

    @given(st.floats(min_value=0, max_value=3.2e8))
    def test_roundtrip_hypothesis(self, timestamp):
        recovered = tu.from_datetime(tu.to_datetime(timestamp))
        assert abs(recovered - timestamp) < 1e-3


class TestCalendarFields:
    def test_epoch_hour(self):
        assert tu.hour_of_day(0.0) == 0

    def test_hour_of_day(self):
        # 1996-01-01 13:30
        assert tu.hour_of_day(13.5 * 3600) == 13

    def test_epoch_weekday_is_monday(self):
        # 1996-01-01 was a Monday.
        assert tu.EPOCH.weekday() == 0
        assert tu.day_of_week(0.0) == 0

    def test_day_of_week_progression(self):
        for offset in range(14):
            timestamp = offset * tu.SECONDS_PER_DAY + 100.0
            assert tu.day_of_week(timestamp) == offset % 7

    def test_weekday_matches_datetime(self):
        when = dt.datetime(2004, 3, 17, 9, 0)  # a Wednesday
        assert tu.day_of_week(tu.from_datetime(when)) == when.weekday() == 2

    @given(st.floats(min_value=0, max_value=3.2e8))
    def test_ranges(self, timestamp):
        assert 0 <= tu.hour_of_day(timestamp) <= 23
        assert 0 <= tu.day_of_week(timestamp) <= 6

    def test_month_index(self):
        assert tu.month_index(0.0) == 0
        assert tu.month_index(tu.SECONDS_PER_MONTH + 1) == 1
        assert tu.month_index(100.0, origin=50.0) == 0

    def test_month_index_before_origin_rejected(self):
        with pytest.raises(ValueError):
            tu.month_index(10.0, origin=20.0)


class TestParseMonthYear:
    def test_basic(self):
        assert tu.parse_month_year("04/01") == tu.from_datetime(dt.datetime(2001, 4, 1))

    def test_nineties(self):
        assert tu.parse_month_year("12/96") == tu.from_datetime(dt.datetime(1996, 12, 1))

    def test_na_and_now_return_none(self):
        assert tu.parse_month_year("N/A") is None
        assert tu.parse_month_year("now") is None

    def test_end_of_month(self):
        end = tu.parse_month_year("12/99", end_of_month=True)
        assert end == tu.from_datetime(dt.datetime(2000, 1, 1))

    def test_bad_month_rejected(self):
        with pytest.raises(ValueError):
            tu.parse_month_year("13/01")


class TestProductionWindow:
    DATA_START = tu.from_datetime(dt.datetime(1996, 6, 1))
    DATA_END = tu.from_datetime(dt.datetime(2005, 12, 1))

    def test_na_clamps_to_data_start(self):
        start, end = tu.production_window("N/A", "12/99", self.DATA_START, self.DATA_END)
        assert start == self.DATA_START
        assert end == tu.from_datetime(dt.datetime(2000, 1, 1))

    def test_now_clamps_to_data_end(self):
        start, end = tu.production_window("04/01", "now", self.DATA_START, self.DATA_END)
        assert start == tu.from_datetime(dt.datetime(2001, 4, 1))
        assert end == self.DATA_END

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            tu.production_window("06/05", "01/05", self.DATA_START, self.DATA_END)

    def test_end_month_inclusive(self):
        # A window ending 11/05 includes all of November 2005.
        __, end = tu.production_window("01/97", "11/05", self.DATA_START, self.DATA_END)
        assert end == self.DATA_END
