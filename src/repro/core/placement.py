"""EMD-based placement of anonymous users into time zones (Sec. IV-A).

Every member of an anonymous crowd is compared, via the Earth Mover's
Distance, against the 24 time-zone reference profiles and assigned to the
nearest one.  The fractions of the crowd landing in each zone form the
*placement distribution* -- the histogram the paper plots in Figs. 3-5 and
9-13 and then fits with Gaussian (mixtures).

The same distance pass also settles Sec. IV-C's flat-profile test, so
:func:`classify_profiles` makes both per-user decisions at once from one
``(25, users)`` table of distances to the 24 references plus the uniform
1/24 profile.  The per-user reduction of every batch crowd
(:func:`repro.core.shard.compute_shard_partial`) and the streaming
engine decide through it, and :func:`assign_zones` turns its
nearest-zone indices into per-user offsets and the placement histogram.
The report assembler and the experiments of Figs. 3-7 and the ablations
call that pair directly.

**The float32 screen.**  For the linear metric (the paper's),
:func:`classify_profiles` fills its table in float32 through the EMD
kernel (:func:`repro.core.emd._pair_sums`), at about half the cost of
float64, and re-decides in float64 only the rows the screen cannot
settle.  Every decision equals the float64 one:

* Let u = 2**-24, float32's unit roundoff.  Each CDF value lies in
  [0, 1]: rows are non-negative and sum to one.  (One min/max pass
  checks it, up to float64 rounding, which the margin below absorbs; a
  table outside it, from a raw array with negative mass, is decided in
  float64 throughout.)  So each of a distance's 24 terms ``|P_k - Q_k|``
  is off by at most 3u from rounding P_k and Q_k to float32 and from
  the subtraction, and the kernel's five summation levels -- each
  rounding partial sums of at most the terms' total, 24 -- add at most
  5u * 24.  A float32 linear EMD thus lies within 72u + 120u = 192u
  (about 1.2e-5) of the exact one, and the float64 one within 2**-45,
  so the two differ by less than 193u.
* A row is settled when no zone but its float32 best and not the
  uniform profile lies within :data:`_SCREEN_TOL` = 2**-14 = 1024u of
  the best zone's float32 distance.  Float32 rounding is monotone and
  2**-14 is a float32 number, so a computed gap above it means the gap
  between the two float32 distances is above it, and their float64
  distances differ by more than 1024u - 2 * 193u > 0 with the same sign.
  So a settled row's best zone is its unique float64 minimum (hence the
  first minimum), and its flat flag is the float64 flag.
* Every other row -- about one in two thousand on the benchmark's crowds
  -- is re-decided from a float64 table of those rows alone, filled by
  the same kernel, which gives each distance the bits
  :func:`~repro.core.emd.distance_matrix` gives it.

The circular, l1 and l2 metrics (ablations only) decide from
:func:`~repro.core.emd.distance_matrix`'s float64 table directly.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.batch import ProfileMatrix
from repro.core.emd import (
    _cumulative_of,
    _pair_sums,
    as_profile_matrix,
    distance_matrix,
)
from repro.core.profiles import HOURS
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

#: Float32 distances within this of a row's best zone send the row to the
#: float64 re-decision: more than twice the 192u bound the module
#: docstring derives for a float32 linear EMD.
_SCREEN_TOL = 2.0**-14

#: Largest profile CDF value the screen's bound admits: 1 up to float64
#: rounding, which the margin over the bound absorbs.
_MAX_CDF = 1.0 + 2.0**-30

#: Zone indices as a ``(24, 1)`` uint8 column, to read a settled row's one
#: near zone off its mask.
_ZONE_INDEX = np.arange(HOURS, dtype=np.uint8)[:, None]


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
    Both are reductions along the reference axis of a ``(25, users)``
    table, not row-wise passes over a strided ``(users, 25)`` view: for
    the linear metric the float32 screen of the module docstring, with
    float64 re-decisions, and otherwise the float64 table
    :func:`~repro.core.emd.distance_matrix` fills (its result's ``.T``).
    Every output depends on its own row only, which is what lets shards,
    snapshots and batches split a crowd freely.
    """
    zones_and_uniform = _ZonesAndUniform(references)
    if metric == "linear":
        cdfs = _cumulative_of(profiles, as_profile_matrix(profiles))
        if cdfs.size and 0.0 <= cdfs.min() and cdfs.max() <= _MAX_CDF:
            return _screened(cdfs, zones_and_uniform.cumulative())
    return _decided(
        distance_matrix(profiles, zones_and_uniform, metric=metric).T
    )


def _decided(by_reference: "FloatArray") -> "tuple[BoolArray, IntArray]":
    """Flat flags and first-minimum zones of a ``(25, users)`` table."""
    zones = by_reference[:-1]
    flat = by_reference[-1] < zones.min(axis=0)
    return flat, np.argmin(zones, axis=0)


def _screened(
    cdfs: "FloatArray", columns: "FloatArray"
) -> "tuple[BoolArray, IntArray]":
    """:func:`classify_profiles`' linear decisions via the float32 screen.

    *cdfs* are the profiles' CDFs, *columns* the 25 reference CDFs; the
    module docstring proves the result equals the float64 decisions.
    """
    table = np.empty((HOURS + 1, len(cdfs)), dtype=np.float32)
    _pair_sums(cdfs, columns, table, np.absolute)
    gaps = np.subtract(table, table[:-1].min(axis=0), out=table)
    flat = gaps[-1] < 0.0
    np.absolute(gaps[-1], out=gaps[-1])
    near = gaps <= _SCREEN_TOL
    nearest = (near[:-1] * _ZONE_INDEX).sum(axis=0, dtype=np.intp)
    # A settled row has its best zone, and nothing else, near; a NaN row
    # has nothing near and is re-decided too.
    doubtful = np.flatnonzero(near.sum(axis=0, dtype=np.uint8) != 1)
    if doubtful.size:
        exact = np.empty((HOURS + 1, doubtful.size))
        _pair_sums(cdfs[doubtful], columns, exact, np.absolute)
        flat[doubtful], nearest[doubtful] = _decided(exact)
    return flat, nearest


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
