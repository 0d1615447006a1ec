"""Activity profiles: Eq. 1 (user) and Eq. 2 (crowd) of the paper.

A *profile* is a probability distribution over the 24 hours of the day.
For a user ``u`` the paper defines (Eq. 1)::

    P_u[h] = sum_d a_d(h) / sum_{d,h} a_d(h)

where ``a_d(h)`` indicates that the user posted during hour ``h`` of day
``d``.  Note this counts *active day-hours*, not posts: posting ten times
within the same hour of the same day contributes exactly one unit, which
makes the profile robust to bursty posting.

The crowd profile (Eq. 2) is the normalised sum of user profiles; since
each user profile already sums to one, it is simply their average.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

import numpy as np

from repro.core.events import ActivityTrace
from repro.core.kernels import segment_counts
from repro.errors import EmptyTraceError, ProfileError

if TYPE_CHECKING:
    from repro.core.types import FloatArray
    from repro.timebase.zones import Region

HOURS = 24


def active_hour_counts(timestamps: "Iterable[float] | FloatArray") -> FloatArray:
    """Eq. 1 numerator: per-hour counts of unique (day, hour) cells.

    Posting ten times within the same hour of the same day contributes one
    unit, exactly as :meth:`ActivityTrace.active_day_hours`.  Computed by
    :func:`~repro.core.kernels.segment_counts` on a one-user column, so a
    per-user profile and the user's
    :class:`~repro.core.batch.ProfileMatrix` row come from one cell
    encoder.
    """
    stamps = np.asarray(timestamps, dtype=np.float64)
    return segment_counts(stamps, np.array([stamps.size], dtype=np.int64))[0]


class Profile:
    """A 24-bin probability distribution of activity over the day."""

    __slots__ = ("_mass",)

    def __init__(self, mass: Iterable[float]) -> None:
        values = np.asarray(list(mass) if not isinstance(mass, np.ndarray) else mass,
                            dtype=float)
        if values.shape != (HOURS,):
            raise ProfileError(f"profile must have {HOURS} bins, got {values.shape}")
        if np.any(values < -1e-12):
            raise ProfileError("profile has negative mass")
        total = float(values.sum())
        if total <= 0.0:
            raise ProfileError("profile has zero total mass")
        self._mass = np.clip(values, 0.0, None) / total

    @property
    def mass(self) -> FloatArray:
        """The normalised 24-vector (read-only view)."""
        view = self._mass.view()
        view.flags.writeable = False
        return view

    def __getitem__(self, hour: int) -> float:
        return float(self._mass[hour % HOURS])

    def __len__(self) -> int:
        return HOURS

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Profile):
            return NotImplemented
        return bool(np.allclose(self._mass, other._mass))

    def __repr__(self) -> str:
        peak = int(np.argmax(self._mass))
        return f"Profile(peak_hour={peak})"

    def shifted(self, hours: int) -> "Profile":
        """Circularly shift the profile by *hours*: ``shifted(s)[h] == self[h - s]``.

        Shift convention used throughout the library: a crowd living in
        UTC+k behaves by the canonical local-time curve ``g``, so its
        profile *on UTC clocks* is ``g.shifted(-k)`` (activity at local
        hour ``L`` happens at UTC hour ``L - k``).  Conversely, converting
        a UTC-clock profile to the crowd's local time applies ``+k``.
        """
        return Profile(np.roll(self._mass, int(hours)))

    def peak_hour(self) -> int:
        """Hour of maximum activity."""
        return int(np.argmax(self._mass))

    def trough_hour(self) -> int:
        """Hour of minimum activity (the paper's ~4-5 am local)."""
        return int(np.argmin(self._mass))

    def entropy(self) -> float:
        """Shannon entropy in bits; log2(24) ~ 4.585 for a flat profile."""
        positive = self._mass[self._mass > 0]
        return float(-(positive * np.log2(positive)).sum())

    def flatness(self) -> float:
        """Total-variation distance to the uniform profile (0 = flat)."""
        return float(0.5 * np.abs(self._mass - 1.0 / HOURS).sum())

    def mixed_with(self, other: "Profile", weight: float) -> "Profile":
        """Convex combination ``(1-weight)*self + weight*other``."""
        if not 0.0 <= weight <= 1.0:
            raise ProfileError(f"weight outside [0, 1]: {weight}")
        return Profile((1.0 - weight) * self._mass + weight * other._mass)


def uniform_profile() -> Profile:
    """The artificial 1/24 profile used by the flat-user filter (Sec. IV-C)."""
    return Profile(np.full(HOURS, 1.0 / HOURS))


def build_user_profile(trace: ActivityTrace, offset_hours: float = 0.0) -> Profile:
    """Eq. 1: the distribution of a user's active day-hours.

    *offset_hours* interprets the trace's UTC timestamps in another zone
    (profiles of known-region users are built in their local time; profiles
    of anonymous users are kept in UTC).
    """
    if trace.is_empty():
        raise EmptyTraceError(f"user {trace.user_id!r} has no posts")
    shifted = trace.timestamps + offset_hours * 3600.0
    return Profile(active_hour_counts(shifted))


def build_user_profile_civil(trace: ActivityTrace, region: "Region") -> Profile:
    """Eq. 1 in the region's *civil* local time (DST-aware).

    The paper builds the ground-truth region profiles having "considered
    daylight saving time for all regions where it is used": each post's
    hour is taken on the clock the user actually lived by that day, which
    makes the profile stable across the DST transitions.  *region* is a
    :class:`repro.timebase.zones.Region`.
    """
    if trace.is_empty():
        raise EmptyTraceError(f"user {trace.user_id!r} has no posts")
    stamps = trace.timestamps
    utc_days = np.floor_divide(stamps, 86400.0).astype(np.int64)
    return Profile(active_hour_counts(stamps + region.utc_offsets(utc_days) * 3600.0))


def build_crowd_profile(profiles: Iterable[Profile]) -> Profile:
    """Eq. 2: the normalised aggregate of user profiles."""
    stack = [profile.mass for profile in profiles]
    if not stack:
        raise EmptyTraceError("cannot build a crowd profile from zero users")
    return Profile(np.sum(stack, axis=0))


def average_pairwise_pearson(profiles: list[Profile]) -> float:
    """Mean Pearson correlation over all profile pairs.

    The paper reports ~0.9 between any two countries' crowd profiles after
    shifting to a common time zone (Sec. IV).
    """
    if len(profiles) < 2:
        raise ProfileError("need at least two profiles")
    matrix = np.vstack([profile.mass for profile in profiles])
    correlations = np.corrcoef(matrix)
    upper = correlations[np.triu_indices(len(profiles), k=1)]
    return float(upper.mean())
