"""Daylight-saving-time rule engine.

The paper's hemisphere test (Sec. V-F) rests on one calendar fact: northern
regions advance their clocks roughly March..October while southern regions
advance them roughly October..February.  This module encodes the concrete
rule families used by the regions in Table I of the paper:

* ``EU_RULE``   -- last Sunday of March .. last Sunday of October, 01:00 UTC,
* ``US_RULE``   -- second Sunday of March .. first Sunday of November,
* ``AU_RULE``   -- first Sunday of October .. first Sunday of April (NSW),
* ``BR_RULE``   -- third Sunday of October .. third Sunday of February,
* ``NO_DST``    -- regions that do not observe DST (Japan, Malaysia...).

A rule answers one question: *is DST in effect on day ordinal d?* -- which
is all the posting simulator and hemisphere classifier need.  Transitions
are resolved at day granularity; the sub-day transition hour is irrelevant
to 24-bin activity profiles.

Each rule walks the calendar (two :func:`nth_weekday_of_month` calls) once
per year it is asked about and keeps the two transition ordinals;
:meth:`DstRule.is_dst` and its array form :meth:`DstRule.offset_adjustments`
then answer from the day's year (:func:`civil_year`, closed form) and
those ordinals.  The synthetic generator offsets every stamp by these
answers, so they are part of its output: the calendar-walking rule they
replaced is the oracle in ``tests/synth_oracle.py``, held equal on every
day of 1990-2050.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.timebase.clock import civil_year, nth_weekday_of_month

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

    from repro.core.types import IntArray

_SUNDAY = 6


class DstObservance(enum.Enum):
    """How a region relates to daylight saving time."""

    NONE = "none"
    NORTHERN = "northern"
    SOUTHERN = "southern"


@dataclass(frozen=True)
class DstRule:
    """A daylight-saving-time rule.

    ``start_month``/``start_n`` and ``end_month``/``end_n`` select the n-th
    Sunday of the respective months (n = -1 meaning the last Sunday).  For
    northern rules the DST interval is [start, end) within one year; for
    southern rules it wraps around the new year: [start, end-of-year] plus
    [new-year, end).
    """

    name: str
    observance: DstObservance
    start_month: int = 0
    start_n: int = 0
    end_month: int = 0
    end_n: int = 0
    shift_hours: int = 1
    #: ``year -> (start_ordinal(year), end_ordinal(year))``, filled by
    #: :meth:`transitions`.
    _transitions: dict[int, tuple[int, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def start_ordinal(self, year: int) -> int:
        """Day ordinal on which DST begins for *year*."""
        return nth_weekday_of_month(year, self.start_month, _SUNDAY, self.start_n)

    def end_ordinal(self, year: int) -> int:
        """Day ordinal on which DST ends for *year* (exclusive)."""
        return nth_weekday_of_month(year, self.end_month, _SUNDAY, self.end_n)

    def transitions(self, year: int) -> tuple[int, int]:
        """``(start_ordinal(year), end_ordinal(year))``, walked once per year."""
        pair = self._transitions.get(year)
        if pair is None:
            pair = self._transitions[year] = (
                self.start_ordinal(year),
                self.end_ordinal(year),
            )
        return pair

    def _in_effect(self, ordinal: Any, start: Any, end: Any) -> Any:
        """The rule's interval test, on ints or on aligned int64 arrays."""
        if self.observance is DstObservance.NORTHERN:
            return (start <= ordinal) & (ordinal < end)
        # Southern rules wrap the new year: in effect from the spring start
        # (Oct-ish) through the end of the year, and from the start of the
        # year until the autumn end (Feb/Apr-ish).
        return (ordinal >= start) | (ordinal < end)

    def is_dst(self, ordinal: int) -> bool:
        """Return True when DST is in effect on day *ordinal*."""
        if self.observance is DstObservance.NONE:
            return False
        ordinal = int(ordinal)
        return bool(self._in_effect(ordinal, *self.transitions(civil_year(ordinal))))

    def offset_adjustment(self, ordinal: int) -> int:
        """Hours to add to the standard offset on day *ordinal* (0 or shift)."""
        return self.shift_hours if self.is_dst(ordinal) else 0

    def offset_adjustments(self, ordinals: ArrayLike) -> IntArray:
        """:meth:`offset_adjustment` of every day in an int array, as int64."""
        days = np.asarray(ordinals, dtype=np.int64)
        if self.observance is DstObservance.NONE or days.size == 0:
            return np.zeros(days.shape, dtype=np.int64)
        years = civil_year(days)
        first = int(years.min())
        table = np.array(
            [self.transitions(year) for year in range(first, int(years.max()) + 1)],
            dtype=np.int64,
        )
        bounds = table[years - first]
        in_effect = self._in_effect(days, bounds[..., 0], bounds[..., 1])
        return np.where(in_effect, np.int64(self.shift_hours), np.int64(0))


NO_DST = DstRule(name="none", observance=DstObservance.NONE)

EU_RULE = DstRule(
    name="eu",
    observance=DstObservance.NORTHERN,
    start_month=3,
    start_n=-1,
    end_month=10,
    end_n=-1,
)

US_RULE = DstRule(
    name="us",
    observance=DstObservance.NORTHERN,
    start_month=3,
    start_n=2,
    end_month=11,
    end_n=1,
)

AU_RULE = DstRule(
    name="au",
    observance=DstObservance.SOUTHERN,
    start_month=10,
    start_n=1,
    end_month=4,
    end_n=1,
)

BR_RULE = DstRule(
    name="br",
    observance=DstObservance.SOUTHERN,
    start_month=10,
    start_n=3,
    end_month=2,
    end_n=3,
)

RULES = {rule.name: rule for rule in (NO_DST, EU_RULE, US_RULE, AU_RULE, BR_RULE)}
