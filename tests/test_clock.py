"""Civil-date arithmetic, checked against the standard library."""

from __future__ import annotations

import datetime

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import CalendarError
from repro.timebase.clock import (
    EPOCH_YEAR,
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    CivilDate,
    civil_to_ordinal,
    day_ordinal,
    days_in_month,
    days_in_year,
    hour_of_day,
    is_leap_year,
    make_timestamp,
    nth_weekday_of_month,
    ordinal_to_civil,
    split_day_hours,
    weekday,
)

_EPOCH_DATE = datetime.date(EPOCH_YEAR, 1, 1)


class TestLeapYears:
    def test_2016_is_leap(self):
        assert is_leap_year(2016)

    def test_2100_is_not_leap(self):
        assert not is_leap_year(2100)

    def test_2000_is_leap(self):
        assert is_leap_year(2000)

    def test_2017_is_not_leap(self):
        assert not is_leap_year(2017)

    def test_days_in_year(self):
        assert days_in_year(2016) == 366
        assert days_in_year(2017) == 365


class TestDaysInMonth:
    def test_february_leap(self):
        assert days_in_month(2016, 2) == 29

    def test_february_regular(self):
        assert days_in_month(2017, 2) == 28

    def test_invalid_month(self):
        with pytest.raises(CalendarError):
            days_in_month(2016, 13)

    @given(st.integers(2000, 2100), st.integers(1, 12))
    def test_matches_stdlib(self, year, month):
        import calendar

        assert days_in_month(year, month) == calendar.monthrange(year, month)[1]


class TestCivilDate:
    def test_str(self):
        assert str(CivilDate(2016, 3, 7)) == "2016-03-07"

    def test_invalid_day(self):
        with pytest.raises(CalendarError):
            CivilDate(2017, 2, 29)

    def test_invalid_month(self):
        with pytest.raises(CalendarError):
            CivilDate(2016, 0, 1)

    def test_ordering(self):
        assert CivilDate(2016, 1, 2) < CivilDate(2016, 2, 1)


class TestOrdinalConversions:
    def test_epoch_is_zero(self):
        assert civil_to_ordinal(CivilDate(2016, 1, 1)) == 0

    def test_known_date(self):
        assert civil_to_ordinal(CivilDate(2016, 12, 31)) == 365

    def test_negative_ordinal(self):
        assert civil_to_ordinal(CivilDate(2015, 12, 31)) == -1

    @given(st.integers(-4000, 4000))
    def test_roundtrip(self, ordinal):
        assert civil_to_ordinal(ordinal_to_civil(ordinal)) == ordinal

    @given(
        st.dates(
            min_value=datetime.date(1990, 1, 1), max_value=datetime.date(2100, 1, 1)
        )
    )
    def test_matches_stdlib(self, date):
        expected = (date - _EPOCH_DATE).days
        assert civil_to_ordinal(CivilDate(date.year, date.month, date.day)) == expected

    @given(st.integers(-20000, 20000))
    def test_ordinal_to_civil_matches_stdlib(self, ordinal):
        expected = _EPOCH_DATE + datetime.timedelta(days=ordinal)
        civil = ordinal_to_civil(ordinal)
        assert (civil.year, civil.month, civil.day) == (
            expected.year,
            expected.month,
            expected.day,
        )


class TestWeekday:
    def test_epoch_weekday_is_friday(self):
        assert weekday(0) == 4

    @given(st.integers(-10000, 10000))
    def test_matches_stdlib(self, ordinal):
        expected = (_EPOCH_DATE + datetime.timedelta(days=ordinal)).weekday()
        assert weekday(ordinal) == expected


class TestTimestamps:
    def test_epoch_timestamp(self):
        assert make_timestamp(2016, 1, 1) == 0.0

    def test_components(self):
        ts = make_timestamp(2016, 1, 2, hour=3, minute=4, second=5)
        assert ts == SECONDS_PER_DAY + 3 * SECONDS_PER_HOUR + 4 * 60 + 5

    def test_invalid_minute(self):
        with pytest.raises(CalendarError):
            make_timestamp(2016, 1, 1, minute=61)

    def test_hour_overflow_rolls_to_next_day(self):
        assert make_timestamp(2016, 1, 1, hour=25) == make_timestamp(
            2016, 1, 2, hour=1
        )

    def test_hour_of_day_utc(self):
        assert hour_of_day(make_timestamp(2016, 6, 15, hour=13)) == 13

    def test_hour_of_day_with_offset(self):
        assert hour_of_day(make_timestamp(2016, 6, 15, hour=23), offset_hours=2) == 1

    def test_day_ordinal_with_offset_wraps(self):
        ts = make_timestamp(2016, 1, 1, hour=23)
        assert day_ordinal(ts) == 0
        assert day_ordinal(ts, offset_hours=2) == 1

    @pytest.mark.parametrize(
        "stamp, offset",
        [
            (-1e-13, 0.0),
            (-5e-324, 0.0),
            (float(np.nextafter(-86400.0, -np.inf)), 0.0),
            (float(np.nextafter(3600.0, 0.0)), -1.0),
        ],
    )
    def test_just_before_midnight_is_hour_23(self, stamp, offset):
        """A remainder that rounds up to a whole day still reads hour 23."""
        assert hour_of_day(stamp, offset) == 23
        days, hours = split_day_hours(np.asarray([stamp]), offset)
        assert (day_ordinal(stamp, offset), hour_of_day(stamp, offset)) == (
            days[0],
            hours[0],
        )

    @given(st.integers(0, 365), st.integers(0, 23), st.integers(-11, 12))
    def test_offset_shift_consistency(self, day, hour, offset):
        ts = day * SECONDS_PER_DAY + hour * SECONDS_PER_HOUR
        assert hour_of_day(ts, offset) == (hour + offset) % 24


class TestNthWeekday:
    def test_last_sunday_march_2016(self):
        # EU DST start 2016: March 27.
        ordinal = nth_weekday_of_month(2016, 3, 6, -1)
        assert ordinal_to_civil(ordinal) == CivilDate(2016, 3, 27)

    def test_second_sunday_march_2016(self):
        # US DST start 2016: March 13.
        ordinal = nth_weekday_of_month(2016, 3, 6, 2)
        assert ordinal_to_civil(ordinal) == CivilDate(2016, 3, 13)

    def test_first_sunday_november_2016(self):
        # US DST end 2016: November 6.
        ordinal = nth_weekday_of_month(2016, 11, 6, 1)
        assert ordinal_to_civil(ordinal) == CivilDate(2016, 11, 6)

    def test_nonexistent_fifth_sunday(self):
        with pytest.raises(CalendarError):
            nth_weekday_of_month(2016, 2, 6, 5)

    def test_zero_n_rejected(self):
        with pytest.raises(CalendarError):
            nth_weekday_of_month(2016, 1, 6, 0)

    @given(st.integers(2000, 2050), st.integers(1, 12), st.integers(0, 6))
    def test_nth_is_correct_weekday(self, year, month, target):
        ordinal = nth_weekday_of_month(year, month, target, 1)
        assert weekday(ordinal) == target
        civil = ordinal_to_civil(ordinal)
        assert civil.month == month and civil.day <= 7
