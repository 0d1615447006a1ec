"""Flat-profile (bot) detection and dataset polishing (Sec. IV-C).

The paper removes users "whose profiles, according to the EMD, result
being closer to an artificial profile created by us where every value is
of 1/24 ... than to a timezone profile", noting these are typically bots
(rarely shift workers), and applies the procedure iteratively.

Against fixed references the flat test is a per-user predicate, so the
first iteration removes every flat user and a second finds nobody.
Production therefore decides it once per user:
:func:`repro.core.shard.compute_shard_partial` takes each user's flat
flag from the same :func:`~repro.core.placement.classify_profiles` pass
(the zone references plus the uniform profile) that places the user.
:func:`flat_profile_mask` is that flag over a whole crowd and
:func:`is_flat_profile` states it for one :class:`Profile`.
:func:`polish_profile_matrix` is the iterative loop over an already-built
:class:`~repro.core.batch.ProfileMatrix`, dropping flat users with a
boolean mask each round (survivors' profiles are reused, never
recomputed); the staged benchmark pipeline and the whole-store oracle
under ``tests/`` run it, and the per-:class:`Profile` loop it replaced
is kept under ``tests/`` as its oracle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.batch import ProfileMatrix
from repro.core.emd import ALL_DISTANCES
from repro.core.placement import classify_profiles
from repro.core.profiles import Profile, uniform_profile
from repro.core.reference import ReferenceProfiles

if TYPE_CHECKING:
    from repro.core.types import BoolArray, ProfileLike


def is_flat_profile(
    profile: Profile,
    references: ReferenceProfiles,
    metric: str = "linear",
) -> bool:
    """True when *profile* is EMD-closer to uniform than to any zone reference."""
    distance = ALL_DISTANCES[metric]
    to_uniform = distance(profile, uniform_profile())
    to_best_zone = min(
        distance(profile, reference) for reference in references.as_list()
    )
    return to_uniform < to_best_zone


def flat_profile_mask(
    profiles: "ProfileLike",
    references: ReferenceProfiles,
    metric: str = "linear",
) -> "BoolArray":
    """Vectorised :func:`is_flat_profile` over a whole crowd.

    The per-user boolean "closer to uniform than to every zone", taken
    from :func:`~repro.core.placement.classify_profiles`.  *profiles* may
    be a :class:`ProfileMatrix`, array or Profile list.
    """
    return classify_profiles(profiles, references, metric)[0]


def polish_profile_matrix(
    matrix: ProfileMatrix,
    references: ReferenceProfiles,
    *,
    metric: str = "linear",
    max_iterations: int = 10,
) -> tuple[ProfileMatrix, tuple[str, ...], int]:
    """Iterative flat-user removal on an already-built profile matrix.

    Returns ``(survivors, removed_user_ids, iterations)``; the loop stops
    at the first round that removes nobody.
    """
    survivors = matrix
    removed: list[str] = []

    iterations = 0
    for iterations in range(1, max_iterations + 1):
        if len(survivors) == 0:
            break
        mask = flat_profile_mask(survivors, references, metric=metric)
        if not mask.any():
            break
        removed.extend(
            user_id for user_id, flat in zip(survivors.user_ids, mask) if flat
        )
        survivors = survivors.select(~mask)

    return survivors, tuple(removed), iterations
