"""The per-user reduction of every batch crowd, and its shard fan-out.

The per-user half of the paper's method -- Eq. 1 profiles, EMD placement
(Sec. IV-A) and flat-profile removal against fixed references
(Sec. IV-C) -- decides each user from that user's posts alone.
:func:`compute_shard_partial` is that half, written once: it takes any
stamp column -- an in-memory crowd's validated
:meth:`~repro.core.events.TraceSet.columns` or one shard of a
:class:`~repro.datasets.store.TraceStore` -- masks it by the activity
threshold, runs the Eq. 1 kernel once over the admitted users and makes
every flat-or-not and nearest-zone decision in one
:func:`~repro.core.placement.classify_profiles` pass.  Its
:class:`ShardPartial` is what
:class:`~repro.core.geolocate.CrowdGeolocator` assembles a report from:
``geolocate()`` reduces the whole crowd as one column,
``geolocate_store()`` reduces each shard and merges the partials.

Because no per-user quantity depends on which other users share its
column, one reduction is correct for any partition of a crowd, and the
merged result is **bit-identical** to reducing the whole store at once
(and to the whole-store pipeline kept as the oracle under ``tests/``):

* Eq. 1 counts are integer-valued and per-user segmented;
* :class:`ProfileMatrix` normalisation divides each row by its own
  (exact, integer) sum;
* every :func:`~repro.core.placement.classify_profiles` decision rests on
  distances that are each a reduction over one (profile, reference) pair
  -- float32 for the screen, float64 for its re-decisions -- so block and
  shard boundaries cannot change a single output bit;
* polishing against *fixed* references converges in one effective round,
  so the flat mask is a pure per-user predicate;
* post totals are integer sums, and the placement histogram and the crowd
  profile are built once, from the merged columns.

:func:`compute_partials` is the batch engine's only fan-out: threads
sharing the caller's open store -- its memmapped columns and the
references -- drain one list of shards, the calling thread among them,
and each result lands in its shard's slot, so the partials come back in
shard order and :func:`merge_partials` is one in-order concatenation.
numpy releases the GIL in its ufunc loops, sorts and bincounts, which is
where a shard spends its time; user ids stay in columns until the report
needs them as strings.
"""

from __future__ import annotations

import logging
import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from repro.core.batch import ProfileMatrix, masked_counts
from repro.core.placement import classify_profiles
from repro.core.reference import ReferenceProfiles
from repro.errors import ProfileError
from repro.obs import metrics as obs_metrics
from repro.obs.logs import get_logger, log_event
from repro.obs.tracing import trace_span

if TYPE_CHECKING:
    from repro.core.types import BoolArray, FloatArray, IntArray
    from repro.datasets.store import TraceStore

_log = get_logger("core")


@dataclass(frozen=True, eq=False)
class ShardPartial:
    """The per-user reduction of one stamp column: a crowd or a store shard.

    The per-user columns cover the users the activity threshold admitted
    who have posts, in column order: their ids, their Eq. 1 ``profiles``
    (the normalised rows the decisions were made on) and ``totals`` (each
    row's active day-hours, the sum it was normalised by), post
    ``lengths``, the flat-profile flag and the EMD-nearest zone index.
    ``n_admitted`` counts every user the threshold admitted, zero-post
    users too when ``min_posts <= 0``; they have no profile, so polishing
    never removes them.
    """

    user_ids: tuple[str, ...]
    profiles: "FloatArray"
    totals: "FloatArray"
    lengths: "IntArray"
    flat_mask: "BoolArray"
    zone_indices: "IntArray"
    n_admitted: int

    def __len__(self) -> int:
        return len(self.user_ids)

    @property
    def counts(self) -> "FloatArray":
        """The raw Eq. 1 count rows, exactly as the kernel produced them.

        A profile entry is ``count / total`` rounded once, so multiplying
        back lands within ``count * 2**-52`` of the integer count -- far
        below 1/2 for any count of a valid stamp column -- and
        :func:`numpy.rint` restores it.  Computed on each access; the
        partial holds one ``(users, 24)`` array, not two.
        """
        return np.rint(self.profiles * self.totals[:, None])


def compute_shard_partial(
    user_ids: Sequence[str],
    lengths: "IntArray",
    stamps: "FloatArray",
    references: ReferenceProfiles,
    *,
    metric: str = "linear",
    min_posts: int = 30,
) -> ShardPartial:
    """Reduce one stamp column to its :class:`ShardPartial`.

    The column is ``(user_ids, lengths, stamps)``: every user's stamps
    back to back, as :meth:`~repro.core.events.TraceSet.columns` returns
    them and as a :class:`~repro.datasets.store.StoreShard` holds them.
    Users with at least *min_posts* posts are admitted; the admitted
    users with posts get their Eq. 1 counts from one masked kernel pass
    (:func:`~repro.core.batch.masked_counts`), then the flat flag and the
    nearest zone from one :func:`~repro.core.placement.classify_profiles`
    pass.  An admitted user's stamp that breaks the stamp rule raises
    :class:`~repro.errors.CorruptTraceError` from the kernel; the other
    users' stamps are masked out unread.
    """
    admitted = lengths >= min_posts
    ids, kept_lengths, counts = masked_counts(
        user_ids, lengths, stamps, admitted & (lengths > 0)
    )
    matrix = ProfileMatrix.from_counts(ids, counts)
    flat, zones = classify_profiles(matrix, references, metric)
    return ShardPartial(
        user_ids=matrix.user_ids,
        profiles=matrix.matrix,
        totals=counts.sum(axis=1),
        lengths=kept_lengths,
        flat_mask=flat,
        zone_indices=zones,
        n_admitted=int(np.count_nonzero(admitted)),
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
        n_admitted=partial.n_admitted,
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
    (:meth:`~repro.datasets.store.TraceStore.shard_bounds`); an empty
    store is one empty shard.  The calling thread and up to
    ``max_workers - 1`` helper threads -- never more threads than shards
    or usable cores -- take shards from one list and reduce them with
    :func:`compute_shard_partial` over the caller's open store, so
    nothing is opened, copied or pickled per shard; each result goes to
    its shard's slot, so the returned list is in shard order whatever the
    scheduling.  With ``max_workers <= 1`` the caller computes every
    shard itself.

    A shard that raises stops the fan-out: no thread starts another
    shard, the helpers are joined and the shard's own exception is
    raised here.  A helper that cannot be started degrades to fewer
    threads with a ``RuntimeWarning``; the caller computes what is left.
    """
    bounds = store.shard_bounds(n_shards) or [(0, 0)]
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
                shard = store.shard(start, stop)
                partial = compute_shard_partial(
                    shard.user_ids,
                    shard.lengths,
                    shard.stamps,
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
    """The partial of the shards' union: one in-order concatenation.

    *partials* (at least one) come in shard order, as
    :func:`compute_partials` returns them, so concatenating every
    per-user column once puts each user at its store row; a single
    partial is returned as it is.  Each shard's profile matrix refuses
    an id it holds twice; an id repeated across shards -- a damaged id
    table -- is refused here with the same
    :class:`~repro.errors.ProfileError`.
    """
    with obs_metrics.histogram(
        "repro_shard_merge_seconds", "wall time to merge shard partials"
    ).time(), trace_span("shard_merge", n_partials=len(partials)):
        if len(partials) == 1:
            return partials[0]
        user_ids = tuple(chain.from_iterable(p.user_ids for p in partials))
        if len(set(user_ids)) != len(user_ids):
            raise ProfileError("duplicate user ids across shard partials")
        return ShardPartial(
            user_ids=user_ids,
            profiles=np.concatenate([p.profiles for p in partials]),
            totals=np.concatenate([p.totals for p in partials]),
            lengths=np.concatenate([p.lengths for p in partials]),
            flat_mask=np.concatenate([p.flat_mask for p in partials]),
            zone_indices=np.concatenate([p.zone_indices for p in partials]),
            n_admitted=sum(p.n_admitted for p in partials),
        )
