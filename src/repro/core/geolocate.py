"""The end-to-end crowd geolocation pipeline (the paper's methodology).

:class:`CrowdGeolocator` wires together every step of Secs. IV-V:

1. polish the crowd (active-user threshold + flat-profile removal),
2. build per-user profiles on UTC clocks (Eq. 1),
3. place each user into the EMD-nearest time zone (Sec. IV-A),
4. decompose the placement distribution with an EM Gaussian mixture
   (Sec. IV-B),
5. compute the Table II fit metrics and the Pearson correlation of the
   crowd profile against the generic profile,
6. optionally run the hemisphere test on the most active users (Sec. V-F).

The result is a :class:`GeolocationReport`, a plain data object holding
everything the paper reports per forum.

Both batch entry points make every per-user decision with one
reduction, :func:`~repro.core.shard.compute_shard_partial`: the activity
threshold masks a stamp column, one Eq. 1 kernel pass builds the
admitted users' profiles, and one
:func:`~repro.core.placement.classify_profiles` pass decides flat or
not and the nearest zone.  In-memory crowds
(:meth:`CrowdGeolocator.geolocate`) are reduced as one column
(:meth:`~repro.core.events.TraceSet.columns`, validated by one pass of
the stamp rule :func:`~repro.core.kernels.valid_stamps`); columnar
stores (:meth:`CrowdGeolocator.geolocate_store`) shard by shard, the
partials merged in shard order (:mod:`repro.core.shard`).  One report
assembler takes the partial and derives the survivors, ``n_users``,
``n_posts`` and ``n_removed_flat``.  Every crowd is polished: the paper
removes flat profiles before placement (Sec. IV-C), and no entry point
offers to skip it.  The per-:class:`Profile` pipeline the batch path
replaced is kept under ``tests/`` as its correctness oracle.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import compress
from typing import TYPE_CHECKING

from repro.core.em import GaussianMixtureModel, select_mixture
from repro.core.events import TraceSet
from repro.core.gaussian import PAPER_SIGMA
from repro.core.hemisphere import HemisphereResult, classify_most_active
from repro.core.metrics import FitDistanceMetrics, fit_distance_metrics, pearson
from repro.core.placement import PlacementDistribution, assign_zones
from repro.core.profiles import Profile
from repro.core.reference import ReferenceProfiles
from repro.core.shard import (
    ShardPartial,
    compute_partials,
    compute_shard_partial,
    merge_partials,
)
from repro.errors import EmptyTraceError
from repro.obs import metrics as obs_metrics
from repro.obs.logs import get_logger, log_event
from repro.obs.tracing import trace_span
from repro.reliability.quality import (
    DataQualityReport,
    assert_traces_clean,
    partition_trace_set,
)

if TYPE_CHECKING:
    from repro.datasets.store import TraceStore

_log = get_logger("core")


def _record_run(report: GeolocationReport, pipeline: str, wall_s: float) -> None:
    """Per-run accounting shared by the in-memory and out-of-core paths."""
    obs_metrics.counter(
        "repro_core_geolocate_runs_total",
        "completed geolocation pipeline runs",
        pipeline=pipeline,
    ).inc()
    obs_metrics.counter(
        "repro_core_users_placed_total", "users placed into a zone"
    ).inc(report.n_users)
    obs_metrics.counter(
        "repro_core_flat_users_removed_total", "users removed by polishing"
    ).inc(report.n_removed_flat)
    obs_metrics.histogram(
        "repro_core_geolocate_seconds", "wall time of one geolocation run"
    ).observe(wall_s)
    log_event(
        _log,
        logging.INFO,
        "geolocate_done",
        pipeline=pipeline,
        crowd=report.crowd_name,
        n_users=report.n_users,
        n_posts=report.n_posts,
        n_removed_flat=report.n_removed_flat,
        k=report.mixture.k,
        zones=report.zone_offsets(),
        wall_s=round(wall_s, 4),
    )


@dataclass(frozen=True)
class GeolocationReport:
    """Everything the paper reports about one crowd."""

    crowd_name: str
    n_users: int
    n_posts: int
    n_removed_flat: int
    crowd_profile: Profile
    pearson_vs_generic: float
    placement: PlacementDistribution
    mixture: GaussianMixtureModel
    fit_metrics: FitDistanceMetrics
    user_zones: dict[str, int] = field(repr=False, default_factory=dict)
    hemisphere: tuple[HemisphereResult, ...] = ()
    #: Populated by ``geolocate(..., quarantine=True)``: which users were
    #: set aside as corrupt and what fraction of the crowd the verdict
    #: actually rests on.  ``None`` on the strict (non-quarantine) path.
    data_quality: DataQualityReport | None = field(repr=False, default=None)

    def zone_offsets(self) -> list[int]:
        """Component zones, largest crowd share first."""
        return self.mixture.zone_offsets()

    def summary(self) -> str:
        """One-paragraph human-readable verdict."""
        zones = ", ".join(
            f"UTC{offset:+d} (weight {component.weight:.2f})"
            for offset, component in zip(
                self.zone_offsets(),
                sorted(self.mixture.components, key=lambda c: -c.weight),
            )
        )
        verdict = (
            f"{self.crowd_name}: {self.n_users} users / {self.n_posts} posts "
            f"-> {self.mixture.k} component(s): {zones}; "
            f"fit avg {self.fit_metrics.average:.3f} "
            f"std {self.fit_metrics.standard_deviation:.3f}; "
            f"Pearson vs generic {self.pearson_vs_generic:.2f}"
        )
        if self.data_quality is not None and not self.data_quality.is_clean():
            verdict += f" [{self.data_quality.summary()}]"
        return verdict


class CrowdGeolocator:
    """Configured geolocation pipeline.

    Parameters mirror the paper's choices: EMD metric (``linear``),
    activity threshold (30 posts), EM sigma initialisation (2.5) and the
    maximum number of mixture components considered.  The component-count
    *criterion* defaults to ``"aic"``: the paper picks the count by visual
    inspection of the placement humps, and AIC matches that willingness to
    split overlapping crowds where BIC is more conservative (both are
    available; the choice is ablated in the benchmarks).
    """

    def __init__(
        self,
        references: ReferenceProfiles | None = None,
        *,
        metric: str = "linear",
        min_posts: int = 30,
        sigma_init: float = PAPER_SIGMA,
        max_components: int = 4,
        min_component_weight: float = 0.05,
        criterion: str = "aic",
    ) -> None:
        self.references = references or ReferenceProfiles.canonical()
        self.metric = metric
        self.min_posts = min_posts
        self.sigma_init = sigma_init
        self.max_components = max_components
        self.min_component_weight = min_component_weight
        self.criterion = criterion

    def geolocate(
        self,
        traces: TraceSet,
        *,
        crowd_name: str = "crowd",
        hemisphere_top_n: int = 0,
        quarantine: bool = False,
    ) -> GeolocationReport:
        """Run the full pipeline on an anonymous crowd's traces.

        Takes the crowd's stamp column once (validation checks the column
        the profile build reads) and reduces it with
        :func:`~repro.core.shard.compute_shard_partial`, the reduction
        :meth:`geolocate_store` runs on every store shard.

        With ``quarantine=True`` corrupt traces (empty, or with NaN, inf
        or out-of-range timestamps) are set aside instead of poisoning
        the analysis: the healthy remainder is geolocated and the report's
        ``data_quality`` field names every quarantined user and reason --
        partial results with an honest accounting.  With ``quarantine=False`` (the
        default) corrupt traces raise
        :class:`~repro.errors.CorruptTraceError`, never a silently wrong
        placement.
        """
        watch = obs_metrics.Stopwatch()
        quality: DataQualityReport | None = None
        with trace_span("quarantine" if quarantine else "validate"):
            if quarantine:
                traces, quality = partition_trace_set(traces)
                columns = traces.columns()
            else:
                columns = assert_traces_clean(traces)
        with trace_span("profile_build", crowd=crowd_name):
            partial = compute_shard_partial(
                *columns,
                self.references,
                metric=self.metric,
                min_posts=self.min_posts,
            )
        hemisphere: tuple[HemisphereResult, ...] = ()
        if hemisphere_top_n > 0:
            removed_ids = list(compress(partial.user_ids, partial.flat_mask.tolist()))
            crowd = traces.with_min_posts(self.min_posts).without_users(removed_ids)
            hemisphere = tuple(
                classify_most_active(crowd, hemisphere_top_n, metric=self.metric)
            )
        return self._assemble(
            crowd_name,
            partial,
            pipeline="batch",
            watch=watch,
            hemisphere=hemisphere,
            data_quality=quality,
        )

    def geolocate_store(
        self,
        store: "TraceStore",
        *,
        crowd_name: str = "crowd",
        n_shards: int | None = None,
        max_workers: int = 1,
    ) -> GeolocationReport:
        """Out-of-core pipeline entry: geolocate a columnar trace store.

        The store is partitioned into *n_shards* contiguous user ranges
        (default: :meth:`~repro.datasets.store.TraceStore.default_shard_count`)
        and each range is reduced to a
        :class:`~repro.core.shard.ShardPartial` straight from the store's
        memmapped columns, by the same reduction as :meth:`geolocate`,
        on the calling thread alone or with up to ``max_workers - 1``
        helper threads reading the same open store
        (:func:`~repro.core.shard.compute_partials`).  The partials,
        merged in shard order, feed the same report assembly as
        :meth:`geolocate`.  Every per-user quantity is independent of its
        neighbours (see :mod:`repro.core.shard`), so the verdict is
        identical to ``geolocate(store.to_trace_set())`` for any shard
        and worker count.  The hemisphere test and quarantine
        partitioning need trace-level access and are not offered on this
        path.  An admitted user's stamp that the stamp rule of
        :func:`~repro.core.kernels.valid_stamps` refuses (the writers
        never store one, but a damaged store may hold one) raises
        :class:`~repro.errors.CorruptTraceError`, as in :meth:`geolocate`.
        """
        watch = obs_metrics.Stopwatch()
        if n_shards is None:
            n_shards = store.default_shard_count()
        with trace_span("profile_build", crowd=crowd_name, source="store"):
            merged = merge_partials(
                compute_partials(
                    store,
                    self.references,
                    metric=self.metric,
                    min_posts=self.min_posts,
                    n_shards=n_shards,
                    max_workers=max_workers,
                )
            )
        return self._assemble(crowd_name, merged, pipeline="store", watch=watch)

    #: The sharded spelling of :meth:`geolocate_store`, kept for callers
    #: that name the shard and worker counts.
    geolocate_store_sharded = geolocate_store

    def _assemble(
        self,
        crowd_name: str,
        partial: ShardPartial,
        *,
        pipeline: str,
        watch: obs_metrics.Stopwatch,
        hemisphere: tuple[HemisphereResult, ...] = (),
        data_quality: DataQualityReport | None = None,
    ) -> GeolocationReport:
        """The report of every entry point, from the crowd's partial.

        Polishing drops the flat users; the survivors' rows and zone
        indices give the placement histogram, EM mixture, crowd profile,
        Pearson and fit metrics, and ``n_users`` / ``n_posts`` /
        ``n_removed_flat`` and the run's accounting follow here.
        """
        with trace_span("polish", n_users=len(partial)):
            keep = ~partial.flat_mask
            survivor_ids = tuple(compress(partial.user_ids, keep.tolist()))
            survivors = partial.profiles[keep]
            n_removed = len(partial) - len(survivor_ids)
        if not survivor_ids:
            raise EmptyTraceError(
                f"{crowd_name}: no active users after polishing "
                f"(threshold {self.min_posts} posts)"
            )
        with trace_span("placement", n_users=len(survivor_ids)):
            assignments, placement = assign_zones(
                survivor_ids, partial.zone_indices[keep]
            )
        with trace_span("mixture"):
            mixture = select_mixture(
                placement,
                max_components=self.max_components,
                sigma_init=self.sigma_init,
                min_weight=self.min_component_weight,
                criterion=self.criterion,
            )
        # Eq. 2 over the survivors' rows, in column order.
        crowd_profile = Profile(survivors.sum(axis=0))
        report = GeolocationReport(
            crowd_name=crowd_name,
            # Zero-post users the threshold admitted count, with no row.
            n_users=partial.n_admitted - n_removed,
            n_posts=int(partial.lengths[keep].sum()),
            n_removed_flat=n_removed,
            crowd_profile=crowd_profile,
            pearson_vs_generic=pearson(
                crowd_profile,
                self.references.for_zone(placement.mode_offset()),
            ),
            placement=placement,
            mixture=mixture,
            fit_metrics=fit_distance_metrics(placement, mixture.components),
            user_zones=assignments,
            hemisphere=hemisphere,
            data_quality=data_quality,
        )
        _record_run(report, pipeline, watch.elapsed_s())
        return report
