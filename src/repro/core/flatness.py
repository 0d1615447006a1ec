"""Flat-profile (bot) detection and dataset polishing (Sec. IV-C).

The paper removes users "whose profiles, according to the EMD, result
being closer to an artificial profile created by us where every value is
of 1/24 ... than to a timezone profile", noting these are typically bots
(rarely shift workers), and applies the procedure iteratively.

:func:`polish_trace_set` / :func:`polish_profile_matrix` build the
crowd's :class:`~repro.core.batch.ProfileMatrix` once, take the flat
mask of each iteration from
:func:`~repro.core.placement.classify_profiles` (one distance pass
against the zone references plus the uniform profile) and drop flat
users with a boolean mask -- survivors' profiles are reused across
iterations, never recomputed.  Against fixed references the flat test is
a per-user predicate, so the first iteration removes every flat user and
the pipeline entry points classify once instead of looping.
:func:`is_flat_profile` states the test for one :class:`Profile`; the
per-:class:`Profile` polishing loop the mask path replaced is kept under
``tests/`` as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.batch import ProfileMatrix
from repro.core.emd import ALL_DISTANCES
from repro.core.events import TraceSet
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


@dataclass(frozen=True)
class PolishResult:
    """Outcome of the iterative polishing pass."""

    polished: TraceSet
    removed_user_ids: tuple[str, ...]
    iterations: int

    @property
    def n_removed(self) -> int:
        return len(self.removed_user_ids)


def polish_profile_matrix(
    matrix: ProfileMatrix,
    references: ReferenceProfiles | None = None,
    *,
    metric: str = "linear",
    max_iterations: int = 10,
) -> tuple[ProfileMatrix, tuple[str, ...], int]:
    """Iterative flat-user removal on an already-built profile matrix.

    Returns ``(survivors, removed_user_ids, iterations)``.  When
    *references* is None the zone references are rebuilt each round from
    the surviving crowd itself; survivor profiles are always reused, only
    the (24, 24) reference stack is ever recomputed.
    """
    survivors = matrix
    removed: list[str] = []
    rebuild = references is None

    iterations = 0
    for iterations in range(1, max_iterations + 1):
        if len(survivors) == 0:
            break
        if rebuild:
            references = ReferenceProfiles(survivors.crowd_profile())
        assert references is not None
        mask = flat_profile_mask(survivors, references, metric=metric)
        if not mask.any():
            break
        removed.extend(
            user_id for user_id, flat in zip(survivors.user_ids, mask) if flat
        )
        survivors = survivors.select(~mask)

    return survivors, tuple(removed), iterations


def polish_trace_set(
    traces: TraceSet,
    references: ReferenceProfiles | None = None,
    *,
    metric: str = "linear",
    min_posts: int = 30,
    max_iterations: int = 10,
) -> PolishResult:
    """The paper's full dataset-polishing pipeline (batch fast path).

    1. Drop non-active users (fewer than *min_posts* posts, Sec. IV).
    2. Iteratively remove flat-profile users.  When *references* is None
       the zone references are rebuilt each round from the surviving crowd
       itself (the paper polishes "the generic timezone profiles" this
       way); passing fixed references skips the rebuilding.
    """
    survivors = traces.with_min_posts(min_posts)
    matrix = ProfileMatrix.from_trace_set(survivors)
    _, removed, iterations = polish_profile_matrix(
        matrix, references, metric=metric, max_iterations=max_iterations
    )
    polished = survivors.without_users(removed) if removed else survivors
    return PolishResult(
        polished=polished,
        removed_user_ids=removed,
        iterations=iterations,
    )
