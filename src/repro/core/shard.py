"""Sharded crowd engine: mergeable per-shard partials with exact reduction.

This is the out-of-core pipeline behind
:meth:`~repro.core.geolocate.CrowdGeolocator.geolocate_store`.  Each
contiguous user range of a :class:`~repro.datasets.store.TraceStore` is
reduced independently to a :class:`ShardPartial` -- Eq. 1 count rows, the
flat-profile (bot) mask and the EMD-nearest zone index for every active
user -- and partials are combined with an associative, commutative
:func:`merge_partials`.

The merged result is **bit-identical** to building one
:class:`~repro.core.batch.ProfileMatrix` for the whole store and then
polishing and placing it, because every per-user quantity in the
pipeline is computed independently of the other users present in the
same matrix:

* Eq. 1 counts are integer-valued and per-user segmented;
* :class:`ProfileMatrix` normalisation divides each row by its own sum;
* every :func:`~repro.core.emd.distance_matrix` element is a reduction
  over one (profile, reference) pair -- block and shard boundaries cannot
  change a single output bit;
* polishing against *fixed* references converges in one effective round,
  so the flat mask is a pure per-user predicate, decided together with
  the nearest zone by one
  :func:`~repro.core.placement.classify_profiles` pass;
* placement histograms and post totals are integer sums.

The test suite keeps that whole-store pipeline as the oracle the sharded
verdict is compared with.

Order is re-canonicalised at merge time: partials carry the global store
row of every kept user and the merge sorts the concatenation by row, so
the reduction is associative and commutative (proven by Hypothesis tests)
and the fan-out order of a process pool cannot leak into the result.

Workers receive a :class:`ShardTask` naming the store *path* and a user
range -- each worker opens the memmapped columns itself, so no trace data
is ever pickled across the pool boundary.  This pool is the only process
fan-out of the batch engine.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.batch import ProfileMatrix, shard_hour_counts
from repro.core.placement import classify_profiles
from repro.core.reference import ReferenceProfiles
from repro.errors import DatasetError
from repro.obs import metrics as obs_metrics
from repro.obs.logs import get_logger, log_event
from repro.obs.tracing import trace_span
from repro.timebase.zones import ZONE_OFFSETS

if TYPE_CHECKING:
    from repro.core.types import BoolArray, FloatArray, IntArray
    from repro.datasets.store import StoreShard, TraceStore

_log = get_logger("core")

_N_ZONES = len(ZONE_OFFSETS)


@dataclass(frozen=True, eq=False)
class ShardPartial:
    """Everything one shard contributes to a crowd verdict, mergeable.

    The fields form a commutative monoid under :meth:`merge` with
    :meth:`identity` as the neutral element: per-user columns are keyed by
    the user's global store row (``rows``, strictly increasing within a
    partial) and merging concatenates then re-sorts by row, so any merge
    tree over disjoint partials yields the same canonical value.

    ``flat_mask`` and ``zone_indices`` cover *every* active user (at least
    ``min_posts`` posts) -- polishing decisions are applied at assembly
    time, which is what lets one partial serve both the polished and the
    unpolished pipeline.  ``placement_counts`` is the per-zone histogram
    of the non-flat users, kept explicitly so histogram mergeability is
    testable on its own; ``n_users_seen`` counts every user the shard
    examined, including those dropped below the activity threshold.
    """

    rows: "IntArray"
    user_ids: tuple[str, ...]
    counts: "FloatArray"
    lengths: "IntArray"
    flat_mask: "BoolArray"
    zone_indices: "IntArray"
    placement_counts: "IntArray"
    n_users_seen: int

    def __post_init__(self) -> None:
        n = int(self.rows.size)
        if len(self.user_ids) != n:
            raise DatasetError(
                f"partial has {n} rows but {len(self.user_ids)} user ids"
            )
        if self.counts.shape != (n, 24):
            raise DatasetError(
                f"partial counts shape {self.counts.shape} != ({n}, 24)"
            )
        for name in ("lengths", "flat_mask", "zone_indices"):
            column: np.ndarray = getattr(self, name)
            if column.shape != (n,):
                raise DatasetError(
                    f"partial {name} shape {column.shape} != ({n},)"
                )
        if self.placement_counts.shape != (_N_ZONES,):
            raise DatasetError(
                f"partial placement_counts shape {self.placement_counts.shape} "
                f"!= ({_N_ZONES},)"
            )
        if n > 1 and not bool(np.all(np.diff(self.rows) > 0)):
            raise DatasetError("partial rows must be strictly increasing")

    def __len__(self) -> int:
        return int(self.rows.size)

    @classmethod
    def identity(cls) -> "ShardPartial":
        """The merge-neutral element (an empty shard)."""
        return cls(
            rows=np.zeros(0, dtype=np.int64),
            user_ids=(),
            counts=np.zeros((0, 24), dtype=np.float64),
            lengths=np.zeros(0, dtype=np.int64),
            flat_mask=np.zeros(0, dtype=bool),
            zone_indices=np.zeros(0, dtype=np.int64),
            placement_counts=np.zeros(_N_ZONES, dtype=np.int64),
            n_users_seen=0,
        )

    def merge(self, other: "ShardPartial") -> "ShardPartial":
        """Combine two disjoint partials: the two-operand :func:`merge_partials`."""
        return _merge([self, other])


def _merge(partials: Sequence[ShardPartial]) -> ShardPartial:
    """Canonical union of disjoint partials: one concatenation, one sort.

    The per-user columns are concatenated and re-sorted by global store
    row, so the result is independent of operand order and grouping
    (associativity + commutativity).  Overlapping rows mean the same
    user was computed twice -- a sharding bug, refused loudly rather
    than double-counted.
    """
    if not partials:
        return ShardPartial.identity()
    rows = np.concatenate([partial.rows for partial in partials])
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    if bool(np.any(np.diff(rows) == 0)):
        raise DatasetError("cannot merge overlapping shard partials")
    user_ids = [user_id for partial in partials for user_id in partial.user_ids]
    columns = {
        name: np.concatenate([getattr(partial, name) for partial in partials])[order]
        for name in ("counts", "lengths", "flat_mask", "zone_indices")
    }
    return ShardPartial(
        rows=rows,
        user_ids=tuple(user_ids[int(i)] for i in order),
        placement_counts=np.sum(
            [partial.placement_counts for partial in partials], axis=0
        ),
        n_users_seen=sum(partial.n_users_seen for partial in partials),
        **columns,
    )


def compute_shard_partial(
    shard: "StoreShard",
    references: ReferenceProfiles,
    *,
    metric: str = "linear",
    min_posts: int = 30,
) -> ShardPartial:
    """Reduce one store shard to its :class:`ShardPartial`.

    Runs the per-user half of the pipeline -- Eq. 1 counts
    (:func:`~repro.core.batch.shard_hour_counts`), then the flat-profile
    predicate and the EMD-nearest zone from one
    :func:`~repro.core.placement.classify_profiles` pass -- for every user
    with at least *min_posts* posts.  All three are per-user independent
    given fixed *references*, which is exactly why the shard
    decomposition is lossless (module docstring).
    """
    counts = shard_hour_counts(shard)
    lengths = np.asarray(shard.lengths, dtype=np.int64)
    keep = lengths >= max(int(min_posts), 1)
    kept = np.flatnonzero(keep)
    user_ids = tuple(shard.user_ids[int(i)] for i in kept)
    kept_counts = np.ascontiguousarray(counts[keep])
    matrix = ProfileMatrix.from_counts(user_ids, kept_counts)
    flat, zones = classify_profiles(matrix, references, metric)
    return ShardPartial(
        rows=(kept + int(shard.start_index)).astype(np.int64),
        user_ids=user_ids,
        counts=kept_counts,
        lengths=lengths[keep],
        flat_mask=flat,
        zone_indices=zones,
        placement_counts=np.bincount(
            zones[~flat], minlength=_N_ZONES
        ).astype(np.int64),
        n_users_seen=len(shard),
    )


@dataclass(frozen=True)
class ShardTask:
    """Pool-worker work order: a store path plus one user range.

    Only the path crosses the process boundary -- the worker opens the
    memmapped columns itself, so dispatch cost is O(1) in the crowd size.
    The references ride along pickled as-is (pickle round-trips float
    bits; rebuilding them in the worker would re-normalise and drift).
    """

    store_path: str
    start: int
    stop: int
    metric: str
    min_posts: int
    references: ReferenceProfiles


def _compute_shard_task(task: ShardTask) -> tuple[ShardPartial, float]:
    """Worker entry: open the store, reduce the range, report wall time."""
    from repro.datasets.store import TraceStore

    watch = obs_metrics.Stopwatch()
    store = TraceStore.open(task.store_path)
    partial = compute_shard_partial(
        store.shard(task.start, task.stop),
        task.references,
        metric=task.metric,
        min_posts=task.min_posts,
    )
    return partial, watch.elapsed_s()


def _record_partial(partial: ShardPartial, wall_s: float, mode: str) -> None:
    obs_metrics.counter(
        "repro_shard_partials_total",
        "shard partials computed by the sharded engine",
        mode=mode,
    ).inc()
    obs_metrics.histogram(
        "repro_shard_compute_seconds", "wall time to reduce one shard"
    ).observe(wall_s)
    log_event(
        _log,
        logging.DEBUG,
        "shard_partial",
        mode=mode,
        n_users_seen=partial.n_users_seen,
        n_active=len(partial),
        n_flat=int(partial.flat_mask.sum()),
        wall_s=round(wall_s, 6),
    )


def _shard_fallback(exc: Exception) -> None:
    """Account + announce the shard fan-out degrading to inline compute."""
    import warnings

    obs_metrics.counter(
        "repro_shard_fallback_total",
        "sharded fan-outs that degraded to inline computation",
    ).inc()
    log_event(
        _log,
        logging.WARNING,
        "shard_fanout_fallback",
        error=f"{type(exc).__name__}: {exc}",
    )
    warnings.warn(
        f"sharded fan-out failed ({type(exc).__name__}: {exc}); "
        f"computing shards inline",
        RuntimeWarning,
        stacklevel=3,
    )


def _compute_inline(
    store: "TraceStore",
    bounds: list[tuple[int, int]],
    references: ReferenceProfiles,
    metric: str,
    min_posts: int,
) -> list[ShardPartial]:
    partials: list[ShardPartial] = []
    for start, stop in bounds:
        shard_watch = obs_metrics.Stopwatch()
        partial = compute_shard_partial(
            store.shard(start, stop),
            references,
            metric=metric,
            min_posts=min_posts,
        )
        _record_partial(partial, shard_watch.elapsed_s(), "inline")
        partials.append(partial)
    return partials


def compute_partials(
    store: "TraceStore",
    references: ReferenceProfiles,
    *,
    metric: str = "linear",
    min_posts: int = 30,
    n_shards: int = 1,
    max_workers: int = 1,
) -> list[ShardPartial]:
    """Reduce every shard of *store*, fanning out over a process pool.

    The store is partitioned into up to *n_shards* contiguous user ranges
    (:meth:`~repro.datasets.store.TraceStore.shard_bounds`).  With
    ``max_workers > 1`` and more than one shard, ranges are dispatched to
    a ``ProcessPoolExecutor`` as :class:`ShardTask` values -- each worker
    opens the memmapped columns itself -- and results are collected in
    submission order, so the returned list is deterministic regardless of
    worker scheduling.  A pool that cannot be spawned or breaks mid-run
    degrades to inline computation with a ``RuntimeWarning``, never a
    lost run.
    """
    bounds = store.shard_bounds(n_shards)
    with trace_span(
        "shard_fanout",
        n_shards=len(bounds),
        max_workers=max_workers,
        n_users=len(store),
    ):
        if max_workers <= 1 or len(bounds) <= 1:
            return _compute_inline(store, bounds, references, metric, min_posts)
        tasks = [
            ShardTask(
                store_path=str(store.path),
                start=start,
                stop=stop,
                metric=metric,
                min_posts=min_posts,
                references=references,
            )
            for start, stop in bounds
        ]
        try:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(
                max_workers=min(max_workers, len(tasks))
            ) as pool:
                results = list(pool.map(_compute_shard_task, tasks))
        except Exception as exc:
            _shard_fallback(exc)
            return _compute_inline(store, bounds, references, metric, min_posts)
        partials = []
        for partial, wall_s in results:
            _record_partial(partial, wall_s, "pool")
            partials.append(partial)
        return partials


def merge_partials(partials: Sequence[ShardPartial]) -> ShardPartial:
    """Merge every partial into one canonical value.

    One concatenation and one stable sort by store row, whatever the
    number of partials (see :func:`_merge`).  :func:`compute_partials`
    guarantees the partials tile the store, so the merged
    ``n_users_seen`` equals the store's user count.
    """
    with obs_metrics.histogram(
        "repro_shard_merge_seconds", "wall time to merge shard partials"
    ).time(), trace_span("shard_merge", n_partials=len(partials)):
        return _merge(partials)
