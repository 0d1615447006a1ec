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
* post totals are integer sums, and the placement histogram is built
  once, from the merged zone column.

The test suite keeps that whole-store pipeline as the oracle the sharded
verdict is compared with.

Order is re-canonicalised at merge time: partials carry the global store
row of every kept user and the merge sorts the concatenation by row, so
the reduction is associative and commutative (proven by Hypothesis tests)
and the order in which shards finish cannot leak into the result.

:func:`compute_partials` is the batch engine's only fan-out: threads
sharing the caller's open store -- its memmapped columns and the
references -- drain one list of shards, the calling thread among them,
and each result lands in its shard's slot.  numpy releases the GIL in
its ufunc loops, sorts and bincounts, which is where a shard spends its
time; user ids stay in columns until the report needs them as strings.
"""

from __future__ import annotations

import logging
import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, compress
from typing import TYPE_CHECKING

import numpy as np

from repro.core.batch import ProfileMatrix, shard_hour_counts
from repro.core.placement import classify_profiles
from repro.core.reference import ReferenceProfiles
from repro.errors import DatasetError
from repro.obs import metrics as obs_metrics
from repro.obs.logs import get_logger, log_event
from repro.obs.tracing import trace_span

if TYPE_CHECKING:
    from repro.core.types import BoolArray, FloatArray, IntArray
    from repro.datasets.store import StoreShard, TraceStore

_log = get_logger("core")


@dataclass(frozen=True, eq=False)
class ShardPartial:
    """Everything one shard contributes to a crowd verdict, mergeable.

    The fields form a commutative monoid under :meth:`merge` with
    :meth:`identity` as the neutral element: per-user columns are keyed by
    the user's global store row (``rows``, strictly increasing within a
    partial) and merging concatenates then re-sorts by row, so any merge
    tree over disjoint partials yields the same canonical value.

    ``flat_mask`` and ``zone_indices`` cover *every* active user (at least
    ``min_posts`` posts); the flat users are dropped at assembly time.
    ``n_users_seen`` counts every user the shard examined, including
    those dropped below the activity threshold.
    """

    rows: "IntArray"
    user_ids: tuple[str, ...]
    counts: "FloatArray"
    lengths: "IntArray"
    flat_mask: "BoolArray"
    zone_indices: "IntArray"
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
            n_users_seen=0,
        )

    def merge(self, other: "ShardPartial") -> "ShardPartial":
        """Combine two disjoint partials: the two-operand :func:`merge_partials`."""
        return _merge([self, other])


def _merge(partials: Sequence[ShardPartial]) -> ShardPartial:
    """Canonical union of disjoint partials: one concatenation, one sort.

    The per-user columns are concatenated and re-sorted by global store
    row, so the result is independent of operand order and grouping
    (associativity + commutativity).  Partials that arrive in row order,
    as :func:`compute_partials` returns them, skip the permutation.
    Overlapping rows mean the same user was computed twice -- a sharding
    bug, refused loudly rather than double-counted.
    """
    if not partials:
        return ShardPartial.identity()
    rows = np.concatenate([partial.rows for partial in partials])
    user_ids = tuple(chain.from_iterable(partial.user_ids for partial in partials))
    columns = {
        name: np.concatenate([getattr(partial, name) for partial in partials])
        for name in ("counts", "lengths", "flat_mask", "zone_indices")
    }
    if not bool(np.all(rows[1:] > rows[:-1])):
        order = np.argsort(rows, kind="stable")
        rows = rows[order]
        if bool(np.any(np.diff(rows) == 0)):
            raise DatasetError("cannot merge overlapping shard partials")
        user_ids = tuple(np.array(user_ids, dtype=object)[order].tolist())
        columns = {name: column[order] for name, column in columns.items()}
    return ShardPartial(
        rows=rows,
        user_ids=user_ids,
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
    user_ids = tuple(compress(shard.user_ids, keep.tolist()))
    kept_counts = np.ascontiguousarray(counts[keep])
    matrix = ProfileMatrix.from_counts(user_ids, kept_counts)
    flat, zones = classify_profiles(matrix, references, metric)
    return ShardPartial(
        rows=(np.flatnonzero(keep) + int(shard.start_index)).astype(np.int64),
        user_ids=user_ids,
        counts=kept_counts,
        lengths=lengths[keep],
        flat_mask=flat,
        zone_indices=zones,
        n_users_seen=len(shard),
    )


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


def _usable_cores() -> int:
    """Cores this process may run on: the cap on a fan-out's threads."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def compute_partials(
    store: "TraceStore",
    references: ReferenceProfiles,
    *,
    metric: str = "linear",
    min_posts: int = 30,
    n_shards: int = 1,
    max_workers: int = 1,
) -> list[ShardPartial]:
    """Reduce every shard of *store*, fanning out over threads.

    The store is partitioned into up to *n_shards* contiguous user ranges
    (:meth:`~repro.datasets.store.TraceStore.shard_bounds`).  The calling
    thread and up to ``max_workers - 1`` helper threads -- never more
    threads than shards or usable cores -- take shards from one list and
    compute them over the caller's open store, so nothing is opened,
    copied or pickled per shard; each result goes to its shard's slot,
    so the returned list is in shard order whatever the scheduling.  With
    ``max_workers <= 1`` the caller computes every shard itself.

    A shard that raises stops the fan-out: no thread starts another
    shard, the helpers are joined and the shard's own exception is
    raised here.  A helper that cannot be started degrades to fewer
    threads with a ``RuntimeWarning``; the caller computes what is left.
    """
    bounds = store.shard_bounds(n_shards)
    slots: list[tuple[ShardPartial, float, str] | None] = [None] * len(bounds)
    errors: list[BaseException] = []
    pending = iter(enumerate(bounds))
    lock = threading.Lock()

    def drain(mode: str) -> None:
        # Spans stay in the caller: the tracer nests per thread.
        while True:
            with lock:
                task = None if errors else next(pending, None)
            if task is None:
                return
            index, (start, stop) = task
            watch = obs_metrics.Stopwatch()
            try:
                partial = compute_shard_partial(
                    store.shard(start, stop),
                    references,
                    metric=metric,
                    min_posts=min_posts,
                )
            except BaseException as exc:  # re-raised in the caller
                with lock:
                    errors.append(exc)
                return
            slots[index] = (partial, watch.elapsed_s(), mode)

    n_helpers = min(max_workers, len(bounds), _usable_cores()) - 1
    with trace_span(
        "shard_fanout",
        n_shards=len(bounds),
        max_workers=max_workers,
        n_users=len(store),
    ):
        helpers: list[threading.Thread] = []
        try:
            for _ in range(n_helpers):
                helper = threading.Thread(
                    target=drain, args=("pool",), name="repro-shard", daemon=True
                )
                try:
                    helper.start()
                except RuntimeError as exc:
                    _shard_fallback(exc)
                    break
                helpers.append(helper)
            drain("inline")
        finally:
            for helper in helpers:
                helper.join()
        if errors:
            raise errors[0]
    partials: list[ShardPartial] = []
    for slot in slots:
        assert slot is not None  # every shard was computed: no error
        partial, wall_s, mode = slot
        _record_partial(partial, wall_s, mode)
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
