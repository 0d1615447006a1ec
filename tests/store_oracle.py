"""Whole-store oracle for the sharded store pipeline.

``CrowdGeolocator.geolocate_store`` reduces a columnar store shard by
shard and merges the partials.  The oracle here is the pipeline it
replaced: one :class:`ProfileMatrix` for the whole store, the iterative
polishing loop, then batch placement and the report fields computed
directly.  The tests compare the production path with it field by field.
"""

from __future__ import annotations

from repro.core.batch import ProfileMatrix
from repro.core.em import select_mixture
from repro.core.flatness import polish_profile_matrix
from repro.core.geolocate import CrowdGeolocator, GeolocationReport
from repro.core.metrics import fit_distance_metrics, pearson
from repro.core.placement import place_profile_matrix
from repro.datasets.store import TraceStore
from repro.errors import EmptyTraceError


def geolocate_store_oracle(
    locator: CrowdGeolocator,
    store: TraceStore,
    *,
    crowd_name: str = "crowd",
) -> GeolocationReport:
    """``from_store`` -> ``polish_profile_matrix`` -> placement -> report."""
    matrix = ProfileMatrix.from_store(store, min_posts=locator.min_posts)
    matrix, removed_ids, _ = polish_profile_matrix(
        matrix, locator.references, metric=locator.metric
    )
    n_removed = len(removed_ids)
    if len(matrix) == 0:
        raise EmptyTraceError(f"{crowd_name}: no active users after polishing")
    assignments, placement = place_profile_matrix(
        matrix, locator.references, metric=locator.metric
    )
    mixture = select_mixture(
        placement,
        max_components=locator.max_components,
        sigma_init=locator.sigma_init,
        min_weight=locator.min_component_weight,
        criterion=locator.criterion,
    )
    crowd_profile = matrix.crowd_profile()
    survivors = set(matrix.user_ids)
    n_posts = sum(
        int(length)
        for user_id, length in zip(store.user_ids(), store.lengths())
        if user_id in survivors
    )
    return GeolocationReport(
        crowd_name=crowd_name,
        n_users=len(matrix),
        n_posts=n_posts,
        n_removed_flat=n_removed,
        crowd_profile=crowd_profile,
        pearson_vs_generic=pearson(
            crowd_profile, locator.references.for_zone(placement.mode_offset())
        ),
        placement=placement,
        mixture=mixture,
        fit_metrics=fit_distance_metrics(placement, mixture.components),
        user_zones=assignments,
    )
