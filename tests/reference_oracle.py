"""Per-:class:`Profile` oracle for the in-memory pipeline and polishing.

``CrowdGeolocator.geolocate`` and the paper's experiments reduce a crowd
with ``compute_shard_partial``: one Eq. 1 kernel pass over the admitted
users and every per-user decision (flat or not, nearest zone) from one
``classify_profiles`` pass.  The oracles here are the pipeline and the
polishing loop that reduction replaced, kept verbatim: every user's
:class:`Profile` is rebuilt from its trace, polishing re-runs scalar
EMDs pair by pair on every iteration against fixed references, and
placement goes through ``place_users`` (one ``classify_profiles`` pass
over the per-user profiles).  The tests compare the production paths
with them.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.core.em import select_mixture
from repro.core.events import TraceSet
from repro.core.flatness import is_flat_profile
from repro.core.geolocate import CrowdGeolocator, GeolocationReport
from repro.core.hemisphere import classify_most_active
from repro.core.metrics import fit_distance_metrics, pearson
from repro.core.placement import assign_zones, classify_profiles, placement_distribution
from repro.core.profiles import Profile, build_crowd_profile, build_user_profile
from repro.core.reference import ReferenceProfiles
from repro.errors import EmptyTraceError


def polish_trace_set_reference(
    traces: TraceSet,
    references: ReferenceProfiles,
    *,
    metric: str = "linear",
    min_posts: int = 30,
    max_iterations: int = 10,
) -> tuple[TraceSet, tuple[str, ...], int]:
    """Per-:class:`Profile` polishing loop (pre-batch reference path).

    Returns ``(polished, removed_user_ids, iterations)``.  Rebuilds every
    surviving user's profile from its trace on every iteration and
    evaluates scalar EMDs pair by pair; kept as the oracle the flat mask
    of ``compute_shard_partial`` is tested against.
    """
    survivors = traces.with_min_posts(min_posts)
    removed: list[str] = []

    iterations = 0
    for iterations in range(1, max_iterations + 1):
        if len(survivors) == 0:
            break
        profiles = {
            trace.user_id: build_user_profile(trace) for trace in survivors
        }
        flat_users = [
            user_id
            for user_id, profile in profiles.items()
            if is_flat_profile(profile, references, metric=metric)
        ]
        if not flat_users:
            break
        removed.extend(flat_users)
        survivors = survivors.without_users(flat_users)

    return survivors, tuple(removed), iterations


def place_users(
    profiles: Mapping[str, Profile],
    references: ReferenceProfiles,
    metric: str = "linear",
) -> dict[str, int]:
    """Assign each user profile to its EMD-nearest time zone.

    Returns a mapping user id -> zone offset.  Ties (rare with real-valued
    distances) resolve to the smaller offset, matching
    :meth:`ReferenceProfiles.nearest_zone`.
    """
    user_ids = list(profiles)
    if not user_ids:
        return {}
    stack = [profiles[user_id] for user_id in user_ids]
    _, nearest = classify_profiles(stack, references, metric)
    return assign_zones(user_ids, nearest)[0]


def geolocate_reference(
    locator: CrowdGeolocator,
    traces: TraceSet,
    *,
    crowd_name: str = "crowd",
    hemisphere_top_n: int = 0,
) -> GeolocationReport:
    """The pre-batch per-``Profile`` pipeline, preserved verbatim."""
    crowd, removed_ids, _ = polish_trace_set_reference(
        traces,
        locator.references,
        metric=locator.metric,
        min_posts=locator.min_posts,
    )
    n_removed = len(removed_ids)
    if len(crowd) == 0:
        raise EmptyTraceError(
            f"{crowd_name}: no active users after polishing "
            f"(threshold {locator.min_posts} posts)"
        )

    profiles = {
        trace.user_id: build_user_profile(trace) for trace in crowd
    }
    assignments = place_users(profiles, locator.references, metric=locator.metric)
    placement = placement_distribution(assignments.values())
    mixture = select_mixture(
        placement,
        max_components=locator.max_components,
        sigma_init=locator.sigma_init,
        min_weight=locator.min_component_weight,
        criterion=locator.criterion,
    )
    crowd_profile = build_crowd_profile(
        build_user_profile(trace) for trace in crowd
    )
    hemisphere = (
        tuple(classify_most_active(crowd, hemisphere_top_n, metric=locator.metric))
        if hemisphere_top_n > 0
        else ()
    )
    return GeolocationReport(
        crowd_name=crowd_name,
        n_users=len(crowd),
        n_posts=crowd.total_posts(),
        n_removed_flat=n_removed,
        crowd_profile=crowd_profile,
        pearson_vs_generic=pearson(
            crowd_profile,
            locator.references.for_zone(placement.mode_offset()),
        ),
        placement=placement,
        mixture=mixture,
        fit_metrics=fit_distance_metrics(placement, mixture.components),
        user_zones=assignments,
        hemisphere=hemisphere,
    )
