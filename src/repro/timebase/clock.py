"""Simulation clock and proleptic-Gregorian civil-date arithmetic.

All timestamps in the library are **seconds since the simulation epoch**,
which is 2016-01-01 00:00:00 UTC -- the year of the Twitter live-stream
grab the paper profiles were built from.  Timestamps are plain floats, so
they compose with numpy without any wrapper types.

The civil-date conversions are implemented from first principles (days
since epoch <-> (year, month, day)) rather than via :mod:`datetime`, so the
whole substrate is self-contained, deterministic and easily property-tested
against the standard library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, overload

import numpy as np

from repro.errors import CalendarError

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

    from repro.core.types import IntArray

#: Calendar year in which the simulation epoch (timestamp 0.0) falls.
EPOCH_YEAR = 2016

HOURS_PER_DAY = 24
SECONDS_PER_HOUR = 3600
SECONDS_PER_DAY = 86400

#: Day of week of the epoch date 2016-01-01 (0=Monday ... 6=Sunday): Friday.
_EPOCH_WEEKDAY = 4

_DAYS_IN_MONTH = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def is_leap_year(year: int) -> bool:
    """Return True when *year* is a Gregorian leap year."""
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


def days_in_month(year: int, month: int) -> int:
    """Return the number of days in *month* of *year* (month is 1-based)."""
    if not 1 <= month <= 12:
        raise CalendarError(f"month out of range: {month}")
    if month == 2 and is_leap_year(year):
        return 29
    return _DAYS_IN_MONTH[month - 1]


def days_in_year(year: int) -> int:
    """Return 365 or 366 depending on leap status."""
    return 366 if is_leap_year(year) else 365


@dataclass(frozen=True, order=True)
class CivilDate:
    """A (year, month, day) triple on the proleptic Gregorian calendar."""

    year: int
    month: int
    day: int

    def __post_init__(self) -> None:
        if not 1 <= self.month <= 12:
            raise CalendarError(f"month out of range: {self.month}")
        if not 1 <= self.day <= days_in_month(self.year, self.month):
            raise CalendarError(
                f"day out of range for {self.year}-{self.month:02d}: {self.day}"
            )

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}-{self.day:02d}"


def civil_to_ordinal(date: CivilDate) -> int:
    """Convert a civil date to days since the epoch (2016-01-01 -> 0).

    Dates before the epoch yield negative ordinals.
    """
    ordinal = 0
    if date.year >= EPOCH_YEAR:
        for year in range(EPOCH_YEAR, date.year):
            ordinal += days_in_year(year)
    else:
        for year in range(date.year, EPOCH_YEAR):
            ordinal -= days_in_year(year)
    for month in range(1, date.month):
        ordinal += days_in_month(date.year, month)
    return ordinal + date.day - 1


def ordinal_to_civil(ordinal: int) -> CivilDate:
    """Convert days since the epoch back to a civil date."""
    year = EPOCH_YEAR
    remaining = int(ordinal)
    while remaining < 0:
        year -= 1
        remaining += days_in_year(year)
    while remaining >= days_in_year(year):
        remaining -= days_in_year(year)
        year += 1
    month = 1
    while remaining >= days_in_month(year, month):
        remaining -= days_in_month(year, month)
        month += 1
    return CivilDate(year, month, remaining + 1)


#: Days from 0000-03-01 to the epoch: :func:`civil_year` counts years
#: from March, so each leap day closes its year.
_MARCH_0000_TO_EPOCH = 736269

#: Days in 400 Gregorian years.
_DAYS_PER_ERA = 146097


@overload
def civil_year(ordinal: int) -> int: ...


@overload
def civil_year(ordinal: IntArray) -> IntArray: ...


def civil_year(ordinal: Any) -> Any:
    """``ordinal_to_civil(ordinal).year`` in closed form, of an int or an int64 array.

    Hinnant's days-to-civil arithmetic: no walk over the years, so the
    DST rules (:mod:`repro.timebase.dst`) can find the year of any day
    at the cost of a few integer operations.
    """
    era, day_of_era = divmod(ordinal + _MARCH_0000_TO_EPOCH, _DAYS_PER_ERA)
    year_of_era = (
        day_of_era
        - day_of_era // 1460
        + day_of_era // 36524
        - day_of_era // (_DAYS_PER_ERA - 1)
    ) // 365
    day_of_year = day_of_era - (365 * year_of_era + year_of_era // 4 - year_of_era // 100)
    # Days 306.. of a March-based year are January and February of the next.
    return era * 400 + year_of_era + (day_of_year >= 306)


def weekday(ordinal: int) -> int:
    """Return the weekday of a day ordinal (0=Monday ... 6=Sunday)."""
    return (_EPOCH_WEEKDAY + int(ordinal)) % 7


def make_timestamp(
    year: int,
    month: int,
    day: int,
    hour: int = 0,
    minute: int = 0,
    second: float = 0.0,
) -> float:
    """Build a UTC timestamp (seconds since the simulation epoch).

    The time-of-day components follow the usual ranges; *hour* may be any
    integer, which allows convenient expressions like ``hour=25`` meaning
    01:00 on the following day (useful when applying zone offsets).
    """
    if not 0 <= minute < 60:
        raise CalendarError(f"minute out of range: {minute}")
    if not 0 <= second < 60:
        raise CalendarError(f"second out of range: {second}")
    ordinal = civil_to_ordinal(CivilDate(year, month, day))
    return (
        ordinal * SECONDS_PER_DAY
        + hour * SECONDS_PER_HOUR
        + minute * 60
        + second
    )


def day_ordinal(timestamp: float, offset_hours: float = 0.0) -> int:
    """Return the civil-day ordinal of *timestamp* in zone UTC+offset."""
    shifted = timestamp + offset_hours * SECONDS_PER_HOUR
    return int(shifted // SECONDS_PER_DAY)


def hour_of_day(timestamp: float, offset_hours: float = 0.0) -> int:
    """Return the hour-of-day (0..23) of *timestamp* in zone UTC+offset.

    This is the quantity the paper's Eq. 1 indicator ``a_d(h)`` is keyed on.
    """
    shifted = timestamp + offset_hours * SECONDS_PER_HOUR
    hour = int((shifted % SECONDS_PER_DAY) // SECONDS_PER_HOUR)
    # The clip of split_day_hours: a tiny negative stamp's remainder
    # rounds up to SECONDS_PER_DAY, which would read as hour 24.
    return min(hour, HOURS_PER_DAY - 1)


def split_day_hours(
    timestamps: "ArrayLike", offset_hours: float = 0.0
) -> "tuple[IntArray, IntArray]":
    """Vectorised :func:`day_ordinal` / :func:`hour_of_day` over an array.

    Returns ``(days, hours)`` int64 arrays; the element-wise results match
    the scalar functions.  This is the shared kernel of every Eq. 1
    profile builder (per-trace and batch).
    """
    stamps = np.asarray(timestamps, dtype=float)
    shifted = stamps + offset_hours * SECONDS_PER_HOUR
    days = np.floor_divide(shifted, SECONDS_PER_DAY).astype(np.int64)
    seconds = np.mod(shifted, SECONDS_PER_DAY)
    hours = np.floor_divide(seconds, SECONDS_PER_HOUR).astype(np.int64)
    # Guard the float artifact where a tiny negative remainder rounds the
    # modulo up to exactly SECONDS_PER_DAY, yielding hour 24.
    np.clip(hours, 0, HOURS_PER_DAY - 1, out=hours)
    return days, hours


def nth_weekday_of_month(year: int, month: int, target_weekday: int, n: int) -> int:
    """Day ordinal of the n-th *target_weekday* of *month* (n>=1).

    With ``n=-1`` returns the *last* such weekday of the month.  Used by the
    DST rule engine (e.g. "last Sunday of March").
    """
    if n == 0:
        raise CalendarError("n must be nonzero")
    first = civil_to_ordinal(CivilDate(year, month, 1))
    if n > 0:
        delta = (target_weekday - weekday(first)) % 7
        ordinal = first + delta + 7 * (n - 1)
        if ordinal_to_civil(ordinal).month != month:
            raise CalendarError(
                f"no {n}th weekday {target_weekday} in {year}-{month:02d}"
            )
        return ordinal
    last = first + days_in_month(year, month) - 1
    delta = (weekday(last) - target_weekday) % 7
    return last - delta + 7 * (n + 1)
