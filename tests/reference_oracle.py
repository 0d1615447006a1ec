"""Per-:class:`Profile` oracle for the in-memory pipeline and polishing.

``CrowdGeolocator.geolocate`` builds one :class:`ProfileMatrix` for the
crowd and makes every per-user decision (flat or not, nearest zone) in
one ``classify_profiles`` pass; ``polish_trace_set`` drops flat users
from that matrix with boolean masks.  The oracles here are the pipeline
and the polishing loop they replaced, kept verbatim: every user's
:class:`Profile` is rebuilt from its trace, polishing re-runs scalar
EMDs pair by pair on every iteration, and placement goes through
``place_users``.  The tests compare the production paths with them.
"""

from __future__ import annotations

from repro.core.em import select_mixture
from repro.core.events import TraceSet
from repro.core.flatness import PolishResult, is_flat_profile
from repro.core.geolocate import CrowdGeolocator, GeolocationReport
from repro.core.hemisphere import classify_most_active
from repro.core.metrics import fit_distance_metrics, pearson
from repro.core.placement import place_users, placement_distribution
from repro.core.profiles import Profile, build_crowd_profile, build_user_profile
from repro.core.reference import ReferenceProfiles
from repro.errors import EmptyTraceError


def polish_trace_set_reference(
    traces: TraceSet,
    references: ReferenceProfiles | None = None,
    *,
    metric: str = "linear",
    min_posts: int = 30,
    max_iterations: int = 10,
) -> PolishResult:
    """Per-:class:`Profile` polishing loop (pre-batch reference path).

    Rebuilds every surviving user's profile from its trace on every
    iteration and evaluates scalar EMDs pair by pair; kept as the oracle
    the vectorised :func:`polish_trace_set` is tested against.
    """
    survivors = traces.with_min_posts(min_posts)
    removed: list[str] = []
    rebuild = references is None

    iterations = 0
    for iterations in range(1, max_iterations + 1):
        if len(survivors) == 0:
            break
        profiles = {
            trace.user_id: build_user_profile(trace) for trace in survivors
        }
        if rebuild:
            crowd = Profile(
                sum(profile.mass for profile in profiles.values())
            )
            references = ReferenceProfiles(crowd)
        assert references is not None
        flat_users = [
            user_id
            for user_id, profile in profiles.items()
            if is_flat_profile(profile, references, metric=metric)
        ]
        if not flat_users:
            break
        removed.extend(flat_users)
        survivors = survivors.without_users(flat_users)

    return PolishResult(
        polished=survivors,
        removed_user_ids=tuple(removed),
        iterations=iterations,
    )


def geolocate_reference(
    locator: CrowdGeolocator,
    traces: TraceSet,
    *,
    crowd_name: str = "crowd",
    hemisphere_top_n: int = 0,
) -> GeolocationReport:
    """The pre-batch per-``Profile`` pipeline, preserved verbatim."""
    polish_result = polish_trace_set_reference(
        traces,
        locator.references,
        metric=locator.metric,
        min_posts=locator.min_posts,
    )
    crowd = polish_result.polished
    n_removed = polish_result.n_removed
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
