"""Vectorised batch-profile engine: Eq. 1 for whole crowds at once.

The per-:class:`~repro.core.profiles.Profile` API is convenient but pays a
Python-object toll per user, which dominates the pipeline on crowds of
thousands to millions of users.  :class:`ProfileMatrix` stores an entire
crowd as one contiguous ``(N, 24)`` row-stochastic array keyed by user id
and is built in a single vectorised pass over the crowd's stamp column
(:meth:`~repro.core.events.TraceSet.columns`: user ids, per-user lengths
and every timestamp back to back): every post is encoded into its
``day*24 + hour`` cell by the guarded division encoder, a user's
duplicate day-hours (the paper's indicator ``a_d(h)``) are dropped, and
one ``np.bincount`` per cache-sized block of users accumulates their
per-hour counts (:func:`repro.core.kernels.segment_counts`).  Users are selected by
masking the column by lengths before the kernel runs, never by
rebuilding trace sets: :func:`masked_counts` is that masked build, shared
by every batch path.

Out-of-core crowds are reduced straight from a
:class:`~repro.datasets.store.TraceStore`'s memmapped stamp segments,
one :meth:`~repro.datasets.store.TraceStore.shard_bounds` range at a
time -- no per-trace Python objects, peak memory bounded by one shard --
by the sharded engine (:mod:`repro.core.shard`), whose threads over the
one open store are the only fan-out.  :meth:`ProfileMatrix.from_store`
walks the same ranges with the same masked build into one matrix, for
the staged benchmark pipeline and the whole-store oracle.  User ids
travel as columns (tuples picked with :func:`itertools.compress`, never
rebuilt id by id), and the id -> row dict is built only when a lookup
asks for it.

Downstream, :func:`repro.core.shard.compute_shard_partial` -- the
per-user reduction of ``geolocate()``, ``geolocate_store()`` and the
paper's experiments -- builds the admitted users' rows with
:func:`masked_counts` and decides flat or not and the nearest zone in one
:func:`repro.core.placement.classify_profiles` pass, so every batch crowd
touches NumPy arrays only.  The per-``Profile`` functions remain for
one-user work (the hemisphere test, the single profiles of Figs. 1 and
7); the per-``Profile`` pipeline the batch paths replaced lives under
``tests/`` as the oracle they are property-tested against.
"""

from __future__ import annotations

import logging
from collections.abc import Iterable, Sequence
from itertools import compress
from typing import TYPE_CHECKING

import numpy as np

from repro.core.events import TraceSet
from repro.core.kernels import segment_counts
from repro.core.profiles import HOURS, Profile
from repro.errors import EmptyTraceError, ProfileError
from repro.obs import metrics as obs_metrics
from repro.obs.logs import get_logger, log_event
from repro.obs.progress import ProgressReporter

if TYPE_CHECKING:
    from repro.core.types import BoolArray, FloatArray, IntArray
    from repro.datasets.store import TraceStore

_log = get_logger("core")


def masked_counts(
    user_ids: Sequence[str],
    lengths: IntArray,
    stamps: FloatArray,
    keep: BoolArray,
) -> tuple[Sequence[str], IntArray, FloatArray]:
    """Eq. 1 numerators of the users *keep* selects from a stamp column.

    Dropped users' stamps are masked out of the column by lengths, so the
    counts kernel runs once, over the kept users' posts only.  Returns
    the kept users' ids, lengths and ``(kept, 24)`` raw counts, in column
    order; a kept zero-post user gets an all-zero row.  Accounted as one
    profile build.
    """
    if not keep.all():
        stamps = np.asarray(stamps)[np.repeat(keep, lengths)]
        lengths = lengths[keep]
        user_ids = tuple(compress(user_ids, keep.tolist()))
    watch = obs_metrics.Stopwatch()
    counts = segment_counts(stamps, lengths)
    _record_build(int(lengths.size), watch.elapsed_s())
    return user_ids, lengths, counts


def _record_build(n_users: int, elapsed_s: float) -> None:
    """Account one counts-kernel build: users and users/sec."""
    obs_metrics.counter(
        "repro_batch_builds_total", "Eq. 1 count builds (one per crowd or shard)"
    ).inc()
    obs_metrics.counter(
        "repro_batch_build_users_total", "users whose Eq. 1 rows were built"
    ).inc(n_users)
    obs_metrics.histogram(
        "repro_batch_build_seconds", "wall time of one counts build"
    ).observe(elapsed_s)
    if elapsed_s > 0.0:
        log_event(
            _log,
            logging.DEBUG,
            "profile_build",
            n_users=n_users,
            wall_s=round(elapsed_s, 6),
            users_per_s=round(n_users / elapsed_s, 1),
        )


class ProfileMatrix:
    """A crowd's Eq. 1 profiles as one contiguous ``(N, 24)`` array.

    Rows are normalised (each sums to one) and kept in user-id order of
    construction, which mirrors :class:`TraceSet` iteration order so the
    batch and per-``Profile`` pipelines visit users identically.
    """

    __slots__ = ("_user_ids", "_index", "_matrix", "_cumulative")

    def __init__(self, user_ids: Iterable[str], matrix: FloatArray) -> None:
        self._user_ids = tuple(user_ids)
        values = np.ascontiguousarray(matrix, dtype=float)
        if values.ndim != 2 or values.shape[1] != HOURS:
            raise ProfileError(
                f"profile matrix must be (N, {HOURS}), got {values.shape}"
            )
        if values.shape[0] != len(self._user_ids):
            raise ProfileError(
                f"{len(self._user_ids)} user ids for {values.shape[0]} rows"
            )
        if np.any(values < -1e-12):
            raise ProfileError("profile matrix has negative mass")
        totals = values.sum(axis=1, keepdims=True)
        if np.any(totals <= 0.0):
            empty = [
                self._user_ids[i] for i in np.flatnonzero(totals[:, 0] <= 0.0)[:3]
            ]
            raise EmptyTraceError(f"users with no activity: {empty}")
        self._matrix = np.clip(values, 0.0, None) / totals
        if len(set(self._user_ids)) != len(self._user_ids):
            raise ProfileError("duplicate user ids in profile matrix")
        self._index: dict[str, int] | None = None
        self._cumulative: FloatArray | None = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_trace_set(cls, traces: TraceSet) -> "ProfileMatrix":
        """One-pass vectorised Eq. 1 over a whole crowd's stamp column.

        Users without posts get no row.
        """
        user_ids, lengths, stamps = traces.columns()
        kept_ids, _, counts = masked_counts(user_ids, lengths, stamps, lengths > 0)
        return cls(kept_ids, counts)

    @classmethod
    def from_counts(
        cls, user_ids: Iterable[str], counts: FloatArray
    ) -> "ProfileMatrix":
        """Build from raw per-hour count rows (e.g. streaming accumulators)."""
        return cls(user_ids, counts)

    @classmethod
    def from_store(
        cls, store: "TraceStore", *, min_posts: int = 0
    ) -> "ProfileMatrix":
        """Build straight from a columnar :class:`~repro.datasets.store.TraceStore`.

        The store is walked over its
        :meth:`~repro.datasets.store.TraceStore.shard_bounds` ranges (its
        :meth:`~repro.datasets.store.TraceStore.default_shard_count`) and
        :func:`masked_counts` runs on each shard's stamp segment directly,
        so no per-trace Python object is ever constructed and peak memory
        is bounded by one shard.  Users with fewer than *min_posts* posts
        (and always zero-post users) are skipped, which matches
        ``from_trace_set(traces.with_min_posts(min_posts))``.
        """
        threshold = max(int(min_posts), 1)
        ids: list[str] = []
        blocks: list[FloatArray] = []
        progress = ProgressReporter(
            "core", "profile_build", total=len(store), unit="users"
        )
        for start, stop in store.shard_bounds(store.default_shard_count()):
            shard = store.shard(start, stop)
            kept_ids, _, counts = masked_counts(
                shard.user_ids, shard.lengths, shard.stamps, shard.lengths >= threshold
            )
            progress.advance(len(shard))
            ids.extend(kept_ids)
            blocks.append(counts)
        progress.finish()
        if not ids:
            return cls.empty()
        return cls(ids, np.vstack(blocks))

    @classmethod
    def empty(cls) -> "ProfileMatrix":
        return cls((), np.zeros((0, HOURS), dtype=float))

    # -- container protocol ----------------------------------------------

    def __len__(self) -> int:
        return len(self._user_ids)

    def __contains__(self, user_id: str) -> bool:
        return user_id in self._lookup()

    def __repr__(self) -> str:
        return f"ProfileMatrix(n_users={len(self)})"

    @property
    def user_ids(self) -> tuple[str, ...]:
        return self._user_ids

    @property
    def matrix(self) -> FloatArray:
        """The normalised ``(N, 24)`` array (read-only view)."""
        view = self._matrix.view()
        view.flags.writeable = False
        return view

    def cumulative(self) -> FloatArray:
        """Row-wise cumulative sums (the EMD CDFs), computed once and cached."""
        if self._cumulative is None:
            self._cumulative = np.cumsum(self._matrix, axis=1)
            self._cumulative.flags.writeable = False
        return self._cumulative

    def _lookup(self) -> dict[str, int]:
        """The id -> row dict, built on the first lookup.

        Pipelines that only read rows in order never pay for it.
        """
        if self._index is None:
            self._index = dict(zip(self._user_ids, range(len(self._user_ids))))
        return self._index

    def index_of(self, user_id: str) -> int:
        try:
            return self._lookup()[user_id]
        except KeyError:
            raise EmptyTraceError(f"no profile for user {user_id!r}") from None

    def row(self, user_id: str) -> FloatArray:
        view = self._matrix[self.index_of(user_id)].view()
        view.flags.writeable = False
        return view

    def profile(self, user_id: str) -> Profile:
        return Profile(self._matrix[self.index_of(user_id)])

    def profiles(self) -> dict[str, Profile]:
        """Materialise per-user :class:`Profile` objects (reference API)."""
        return {
            user_id: Profile(row)
            for user_id, row in zip(self._user_ids, self._matrix)
        }

    # -- subsetting and aggregation --------------------------------------

    @classmethod
    def _from_normalized(
        cls,
        user_ids: tuple[str, ...],
        matrix: FloatArray,
        cumulative: FloatArray | None = None,
    ) -> "ProfileMatrix":
        """Wrap rows that are already validated and row-stochastic.

        Skips the constructor's shape/negativity checks and -- crucially --
        its re-normalisation, so subsetting an existing matrix preserves
        every row bit for bit (polish iterates ``select``; re-dividing by a
        1.0-within-eps total each round would both waste time and walk the
        rows away from their one-normalisation values).  Only for rows
        taken verbatim from an existing :class:`ProfileMatrix`.
        """
        self = object.__new__(cls)
        self._user_ids = user_ids
        self._matrix = matrix
        self._index = None
        self._cumulative = cumulative
        return self

    def select(self, mask: BoolArray) -> "ProfileMatrix":
        """Rows where the boolean *mask* is true, order preserved.

        Rows are row-stochastic by construction, so the subset skips
        re-validation and re-normalisation; an already-computed CDF cache
        is sliced along with the rows (row-wise cumsums are independent,
        so the sliced cache is exactly the subset's CDFs).
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (len(self),):
            raise ProfileError(f"mask shape {mask.shape} != ({len(self)},)")
        ids = tuple(compress(self._user_ids, mask.tolist()))
        cumulative = None
        if self._cumulative is not None:
            cumulative = self._cumulative[mask]
            cumulative.flags.writeable = False
        return ProfileMatrix._from_normalized(ids, self._matrix[mask], cumulative)

    def without_users(self, user_ids: Iterable[str]) -> "ProfileMatrix":
        excluded = set(user_ids)
        keep = np.fromiter(
            (user_id not in excluded for user_id in self._user_ids),
            dtype=bool,
            count=len(self),
        )
        return self.select(keep)

    def crowd_profile(self) -> Profile:
        """Eq. 2: the normalised aggregate of the rows."""
        if len(self) == 0:
            raise EmptyTraceError("cannot build a crowd profile from zero users")
        return Profile(self._matrix.sum(axis=0))
