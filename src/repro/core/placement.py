"""EMD-based placement of anonymous users into time zones (Sec. IV-A).

Every member of an anonymous crowd is compared, via the Earth Mover's
Distance, against the 24 time-zone reference profiles and assigned to the
nearest one.  The fractions of the crowd landing in each zone form the
*placement distribution* -- the histogram the paper plots in Figs. 3-5 and
9-13 and then fits with Gaussian (mixtures).

The same distance pass also settles Sec. IV-C's flat-profile test, so
:func:`classify_profiles` makes both per-user decisions at once: one
:func:`~repro.core.emd.distance_matrix` call against the 24 references
plus the uniform 1/24 profile.  Placement, polishing
(:func:`repro.core.flatness.flat_profile_mask`), the sharded engine and
the streaming engine all decide through it.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.batch import ProfileMatrix
from repro.core.emd import distance_matrix
from repro.core.events import TraceSet
from repro.core.profiles import HOURS, Profile
from repro.core.reference import ReferenceProfiles
from repro.errors import EmptyTraceError
from repro.timebase.zones import ZONE_OFFSETS, normalize_offset

if TYPE_CHECKING:
    from collections.abc import Sequence

    from repro.core.types import BoolArray, FloatArray, IntArray, ProfileLike

#: Sec. IV-C's flat reference, the uniform 1/24 profile, and its CDF.  Its
#: 24 entries sum to exactly 1.0, so normalising it changes no bit.
_UNIFORM = np.full(HOURS, 1.0 / HOURS)
_UNIFORM_CDF = np.cumsum(_UNIFORM)

#: ``ZONE_OFFSETS`` as a column, so zone indices map to offsets in one take.
_OFFSETS = np.asarray(ZONE_OFFSETS, dtype=np.int64)


@dataclass(frozen=True)
class PlacementDistribution:
    """Fraction of an anonymous crowd placed in each of the 24 zones."""

    fractions: tuple[float, ...]
    n_users: int

    def __post_init__(self) -> None:
        if len(self.fractions) != len(ZONE_OFFSETS):
            raise ValueError(
                f"expected {len(ZONE_OFFSETS)} fractions, got {len(self.fractions)}"
            )

    @property
    def offsets(self) -> tuple[int, ...]:
        return ZONE_OFFSETS

    def as_array(self) -> FloatArray:
        return np.asarray(self.fractions, dtype=float)

    def fraction_at(self, offset: int) -> float:
        return self.fractions[ZONE_OFFSETS.index(normalize_offset(offset))]

    def mode_offset(self) -> int:
        """Zone offset receiving the largest crowd fraction."""
        return ZONE_OFFSETS[int(np.argmax(self.fractions))]

    def mean_offset(self) -> float:
        """Crowd-weighted mean zone offset (linear, as the paper fits)."""
        array = self.as_array()
        return float(np.dot(array, np.asarray(ZONE_OFFSETS)) / array.sum())

    def counts(self) -> IntArray:
        """Approximate per-zone user counts (fractions * n_users)."""
        return np.rint(self.as_array() * self.n_users).astype(int)

    def top_zones(self, n: int = 3) -> list[tuple[int, float]]:
        """The *n* (offset, fraction) pairs with the largest fractions."""
        order = np.argsort(self.fractions)[::-1][:n]
        return [(ZONE_OFFSETS[i], self.fractions[i]) for i in order]


class _ZonesAndUniform:
    """The 24 zone references with the uniform profile as a 25th row.

    Offers the ``stacked()`` / ``cumulative()`` pair
    :func:`~repro.core.emd.distance_matrix` reuses, so the zone columns
    are computed from the references' own cached CDFs.
    """

    __slots__ = ("_stacked", "_cumulative")

    def __init__(self, references: ReferenceProfiles) -> None:
        self._stacked = np.vstack([references.stacked(), _UNIFORM])
        self._cumulative = np.vstack([references.cumulative(), _UNIFORM_CDF])

    def stacked(self) -> "FloatArray":
        return self._stacked

    def cumulative(self) -> "FloatArray":
        return self._cumulative


def classify_profiles(
    profiles: "ProfileLike",
    references: ReferenceProfiles,
    metric: str = "linear",
) -> "tuple[BoolArray, IntArray]":
    """Each user's flat flag and nearest zone, from one distance pass.

    Returns ``(flat, nearest)``.  ``flat`` marks profiles EMD-closer to
    the uniform profile than to every zone reference (the polishing
    predicate of Sec. IV-C).  ``nearest`` is each profile's index into
    ``ZONE_OFFSETS`` of the closest zone; the argmin runs over the 24
    zones only and takes the first minimum, so ties resolve to the
    smaller offset, as :meth:`ReferenceProfiles.nearest_zone` does.
    Both are reductions along the reference axis of the ``(25, users)``
    table :func:`~repro.core.emd.distance_matrix` fills (its result's
    ``.T``), not row-wise passes over a strided ``(users, 25)`` view.
    Every output depends on its own row only, which is what lets shards,
    snapshots and batches split a crowd freely.
    """
    by_reference = distance_matrix(
        profiles, _ZonesAndUniform(references), metric=metric
    ).T
    zones = by_reference[:-1]
    flat = by_reference[-1] < zones.min(axis=0)
    return flat, np.argmin(zones, axis=0)


def assign_zones(
    user_ids: "Sequence[str]", nearest: "IntArray"
) -> tuple[dict[str, int], PlacementDistribution]:
    """Per-user zone offsets and the placement histogram of *nearest*.

    *nearest* holds each user's index into ``ZONE_OFFSETS`` (as returned
    by :func:`classify_profiles`); the offsets are one take of it and the
    histogram one bincount.  The mapping keeps *user_ids*' order and has
    plain ``int`` values.
    """
    if len(nearest) == 0:
        raise EmptyTraceError("cannot build a placement from zero users")
    assignments = dict(zip(user_ids, _OFFSETS[nearest].tolist()))
    counts = np.bincount(nearest, minlength=len(ZONE_OFFSETS)).astype(float)
    distribution = PlacementDistribution(
        tuple((counts / counts.sum()).tolist()), n_users=len(nearest)
    )
    return assignments, distribution


def place_users(
    profiles: "Mapping[str, Profile] | ProfileMatrix",
    references: ReferenceProfiles,
    metric: str = "linear",
) -> dict[str, int]:
    """Assign each user profile to its EMD-nearest time zone.

    Returns a mapping user id -> zone offset.  Ties (rare with real-valued
    distances) resolve to the smaller offset, matching
    :meth:`ReferenceProfiles.nearest_zone`.  *profiles* may be a plain
    mapping of :class:`Profile` or a whole :class:`ProfileMatrix`.
    """
    if isinstance(profiles, ProfileMatrix):
        user_ids: list[str] | tuple[str, ...] = profiles.user_ids
        stack = profiles
    else:
        user_ids = list(profiles)
        stack = [profiles[user_id] for user_id in user_ids]
    if not user_ids:
        return {}
    _, nearest = classify_profiles(stack, references, metric)
    return assign_zones(user_ids, nearest)[0]


def placement_distribution(assignments: Iterable[int]) -> PlacementDistribution:
    """Aggregate per-user zone assignments into a placement distribution."""
    offsets = np.fromiter(
        (int(offset) for offset in assignments), dtype=np.int64
    )
    if offsets.size == 0:
        raise EmptyTraceError("cannot build a placement from zero users")
    # normalize_offset(o) == ((o + 11) % 24) - 11, and ZONE_OFFSETS.index of
    # a normalised offset is offset + 11 -- so one bincount does both.
    counts = np.bincount(
        (offsets + 11) % 24, minlength=len(ZONE_OFFSETS)
    ).astype(float)
    fractions = counts / counts.sum()
    return PlacementDistribution(
        tuple(fractions.tolist()), n_users=int(offsets.size)
    )


def place_profile_matrix(
    matrix: ProfileMatrix,
    references: ReferenceProfiles,
    metric: str = "linear",
) -> tuple[dict[str, int], PlacementDistribution]:
    """Batch placement: per-user assignments plus the aggregate, one pass.

    The crowd is placed with one :func:`classify_profiles` evaluation and
    the histogram is bincounted straight from its argmin indices.
    """
    _, nearest = classify_profiles(matrix, references, metric)
    return assign_zones(matrix.user_ids, nearest)


def place_trace_set(
    traces: TraceSet,
    references: ReferenceProfiles,
    metric: str = "linear",
) -> PlacementDistribution:
    """Profile every trace (on UTC clocks) and place the crowd.

    This is the one-call version used by the figure benches; the richer
    pipeline (polishing, fitting, reporting) lives in
    :class:`repro.core.geolocate.CrowdGeolocator`.
    """
    matrix = ProfileMatrix.from_trace_set(traces)
    if len(matrix) == 0:
        raise EmptyTraceError("cannot build a placement from zero users")
    _, distribution = place_profile_matrix(matrix, references, metric=metric)
    return distribution
