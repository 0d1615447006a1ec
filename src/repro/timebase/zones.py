"""Time zones and the region registry.

The paper places crowds into the 24 integer time zones UTC-11 .. UTC+12 and
builds ground-truth profiles from 14 regions (countries or U.S. states /
Australian states) listed in its Table I.  This module defines:

* :class:`TimeZone` -- an integer-offset world time zone,
* :class:`Region` -- a named region with standard offset, hemisphere, DST
  rule and the Table I active-user count,
* the registry accessors :func:`get_zone`, :func:`get_region`,
  :func:`all_zones`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ZoneError
from repro.timebase.dst import (
    AU_RULE,
    BR_RULE,
    EU_RULE,
    NO_DST,
    US_RULE,
    DstRule,
)

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

    from repro.core.types import IntArray

#: The integer zone offsets used for placement, in plotting order.
ZONE_OFFSETS = tuple(range(-11, 13))


class Hemisphere(enum.Enum):
    """Hemisphere of a region (drives which DST convention applies)."""

    NORTHERN = "northern"
    SOUTHERN = "southern"


def normalize_offset(offset: int) -> int:
    """Map an arbitrary integer hour offset into the canonical -11..+12 range."""
    return (int(offset) + 11) % 24 - 11


@dataclass(frozen=True)
class TimeZone:
    """One of the 24 integer world time zones."""

    offset: int

    def __post_init__(self) -> None:
        if self.offset not in ZONE_OFFSETS:
            raise ZoneError(f"offset outside -11..+12: {self.offset}")

    @property
    def name(self) -> str:
        sign = "+" if self.offset >= 0 else "-"
        return f"UTC{sign}{abs(self.offset)}"

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Region:
    """A geographic region with verified ground truth (paper Table I)."""

    name: str
    base_offset: int
    hemisphere: Hemisphere
    dst_rule: DstRule
    twitter_active_users: int
    language: str = "en"

    @property
    def uses_dst(self) -> bool:
        return self.dst_rule is not NO_DST

    def utc_offset_at(self, ordinal: int) -> int:
        """Effective UTC offset (standard + DST adjustment) on day *ordinal*."""
        return self.base_offset + self.dst_rule.offset_adjustment(ordinal)

    def utc_offsets(self, ordinals: ArrayLike) -> IntArray:
        """:meth:`utc_offset_at` of every day in an int array, as int64."""
        return self.base_offset + self.dst_rule.offset_adjustments(ordinals)

    @property
    def zone(self) -> TimeZone:
        return TimeZone(normalize_offset(self.base_offset))


# Table I of the paper: active users by country/state, with each region's
# standard offset, hemisphere and DST rule family.  Turkey abolished DST in
# September 2016 by staying permanently on UTC+3; since the dataset year is
# 2016 we model it as a no-DST UTC+3 region.
_REGIONS = {
    "brazil": Region("Brazil", -3, Hemisphere.SOUTHERN, BR_RULE, 3763, "pt"),
    "california": Region("California", -8, Hemisphere.NORTHERN, US_RULE, 2868, "en"),
    "finland": Region("Finland", 2, Hemisphere.NORTHERN, EU_RULE, 73, "fi"),
    "france": Region("France", 1, Hemisphere.NORTHERN, EU_RULE, 2222, "fr"),
    "germany": Region("Germany", 1, Hemisphere.NORTHERN, EU_RULE, 470, "de"),
    "illinois": Region("Illinois", -6, Hemisphere.NORTHERN, US_RULE, 794, "en"),
    "italy": Region("Italy", 1, Hemisphere.NORTHERN, EU_RULE, 734, "it"),
    "japan": Region("Japan", 9, Hemisphere.NORTHERN, NO_DST, 3745, "ja"),
    "malaysia": Region("Malaysia", 8, Hemisphere.NORTHERN, NO_DST, 1714, "ms"),
    "new_south_wales": Region(
        "New South Wales", 10, Hemisphere.SOUTHERN, AU_RULE, 151, "en"
    ),
    "new_york": Region("New York", -5, Hemisphere.NORTHERN, US_RULE, 1417, "en"),
    "poland": Region("Poland", 1, Hemisphere.NORTHERN, EU_RULE, 375, "pl"),
    "turkey": Region("Turkey", 3, Hemisphere.NORTHERN, NO_DST, 1019, "tr"),
    "united_kingdom": Region(
        "United Kingdom", 0, Hemisphere.NORTHERN, EU_RULE, 3231, "en"
    ),
    # Extra regions used by the Dark Web forum case studies (not in Table I).
    "russia_moscow": Region("Russia (Moscow)", 3, Hemisphere.NORTHERN, NO_DST, 0, "ru"),
    "paraguay": Region("Paraguay", -4, Hemisphere.SOUTHERN, BR_RULE, 0, "es"),
    "us_pacific": Region("US Pacific", -8, Hemisphere.NORTHERN, US_RULE, 0, "en"),
    "caucasus": Region("Caucasus (UTC+4)", 4, Hemisphere.NORTHERN, NO_DST, 0, "ru"),
}

#: Region keys corresponding exactly to the paper's Table I rows.
TABLE1_KEYS = (
    "brazil",
    "california",
    "finland",
    "france",
    "germany",
    "illinois",
    "italy",
    "japan",
    "malaysia",
    "new_south_wales",
    "new_york",
    "poland",
    "turkey",
    "united_kingdom",
)


def get_region(key: str) -> Region:
    """Look up a region by its registry key (e.g. ``"germany"``)."""
    try:
        return _REGIONS[key.lower()]
    except KeyError:
        raise ZoneError(f"unknown region: {key!r}") from None


def region_keys() -> tuple[str, ...]:
    """All registered region keys (Table I plus case-study extras)."""
    return tuple(_REGIONS)


def get_zone(offset: int) -> TimeZone:
    """Return the canonical :class:`TimeZone` for an integer offset."""
    return TimeZone(normalize_offset(offset))


def all_zones() -> tuple[TimeZone, ...]:
    """The 24 integer time zones in plotting order (UTC-11 .. UTC+12)."""
    return tuple(TimeZone(offset) for offset in ZONE_OFFSETS)
