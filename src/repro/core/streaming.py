"""Streaming crowd geolocation: verdicts that update as posts arrive.

Sec. VII of the paper: when a forum hides timestamps, "one might need to
monitor a sufficiently large number of days, depending on the frequency
of the posts, in order to collect 30 posts per user or more necessary to
build meaningful profiles".  :class:`StreamingGeolocator` makes that
operational: feed it (author, timestamp) events as they are observed and
ask for the current verdict at any point -- the convergence experiment
(:func:`repro.analysis.streaming_experiments.run_convergence_experiment`)
then answers *how many days of monitoring a given forum needs*.

Incremental state is kept per user as a **versioned record**: the (day,
hour) active-cell counts of Eq. 1, a record version, and -- when the
temporal-drift layer is enabled -- a confidence score in [0, 1] with
passive time decay (:mod:`repro.core.drift`).  An update is O(1), and so
is most of a snapshot: the geolocator caches every user's zone
assignment and flat/active status, together with the 25-bin placement
histogram, and a *dirty set* records exactly which users changed (a post
landing in a new Eq. 1 cell, or a user crossing the activity threshold)
since the last snapshot.  ``snapshot()`` re-places only the dirty users
and patches the histogram by count deltas, making its cost O(dirty +
bins) instead of O(all users); the always-cold pipeline is preserved as
:meth:`StreamingGeolocator.snapshot_reference`, the oracle the
incremental path is property-tested against.

**Temporal drift** (ROADMAP item 4): pass a
:class:`~repro.core.drift.DriftConfig` and the engine watches every
user's rolling window against their historical profile with the same EMD
the placement uses.  When a change-point fires -- or confidence decays
below threshold while the window disagrees with the cached placement --
the user's record is truncated to the window, re-placed, and a
:class:`~repro.core.drift.ZoneMigrationEvent` is emitted through
:meth:`StreamingGeolocator.on_migration` subscribers; the placement
histogram absorbs the change through the ordinary dirty-set delta
machinery, so drift-adjusted snapshots remain bit-identical to
``snapshot_reference()`` over the same records.  With drift disabled
(the default) the engine is bit-identical to, and within noise as fast
as, the pre-drift release -- ``perf_smoke.py`` gates both.

**Bulk intake** (:meth:`StreamingGeolocator.observe_batch`,
:meth:`StreamingGeolocator.ingest_store`) has one core,
``_ingest_grouped``: it bins a chunk once into per-user sorted unique
cells and merges them into the records -- array-backed records in one
vectorised pass, set-backed ones per user.  With drift on, a user whose
chunk could fire a lifecycle check replays their events through
:meth:`StreamingGeolocator.observe` in original chunk order instead.
Either way the engine lands in exactly the state the per-event loop
reaches.

A monitoring campaign runs for months, so the geolocator's full state
(configuration, reference profiles, every user's versioned record, the
drift configuration and composition timeline) round-trips through
:meth:`StreamingGeolocator.save_checkpoint` /
:meth:`StreamingGeolocator.load_checkpoint` -- kill the process at any
point and the reloaded instance produces the same snapshots.  One codec
serves both payload formats: :meth:`StreamingGeolocator.binary_state`
lays the state out as integer and float columns (all users' cells in one
encoded column), the ``.npz`` payload stores those columns as they are,
and the JSON document of earlier releases (still written by default,
still loadable) is :meth:`StreamingGeolocator.state_dict`'s rendering of
them.  Loading parses either payload back into the same columns and
restores them in one vectorised pass
(:meth:`StreamingGeolocator.from_binary_state`), so a million-user
checkpoint round-trips in seconds.  ``load_checkpoint`` negotiates both
the payload format and the schema version from the file itself:
version-1 checkpoints written before the drift layer existed load with
full-confidence defaults, while a version-2 checkpoint handed to a
version-1 reader fails loudly with a :class:`CheckpointError`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence, Sized
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.batch import ProfileMatrix
from repro.core.drift import (
    ChangePointDetector,
    CompositionTimeline,
    ConfidenceSummary,
    DriftConfig,
    UserConfidence,
    ZoneMigrationEvent,
)
from repro.core.em import GaussianMixtureModel, select_mixture
from repro.core.events import PostEvent
from repro.core.flatness import flat_profile_mask
from repro.core.gaussian import PAPER_SIGMA
from repro.core.kernels import segment_unique_cells
from repro.core.placement import (
    PlacementDistribution,
    classify_profiles,
    place_profile_matrix,
)
from repro.core.profiles import HOURS, Profile
from repro.core.reference import ReferenceProfiles
from repro.errors import CheckpointError, CorruptTraceError, EmptyTraceError
from repro.obs import metrics as obs_metrics
from repro.obs.tracing import trace_span
from repro.reliability.checkpoint import (
    checkpoint_format,
    read_binary_checkpoint_negotiated,
    read_checkpoint_negotiated,
    write_binary_checkpoint,
    write_checkpoint,
)
from repro.reliability.clocks import WallClockFn, wall_now

if TYPE_CHECKING:
    from repro.core.types import AnyArray, FloatArray, IntArray
    from repro.datasets.store import TraceStore
from repro.timebase.zones import ZONE_OFFSETS

#: Checkpoint envelope identifiers for :class:`StreamingGeolocator` state.
STREAM_CHECKPOINT_KIND = "streaming-geolocator"
#: Version written by this release (2: versioned per-user records with
#: confidence lifecycle fields, drift config and composition timeline).
STREAM_CHECKPOINT_VERSION = 2
#: Every version this release can still read; version 1 (pre-drift) loads
#: with full-confidence defaults.
STREAM_CHECKPOINT_COMPAT: tuple[int, ...] = (1, 2)

#: :meth:`StreamSnapshot.verdict_state` sentinels.  ``EMPTY_STREAM`` is the
#: explicit "snapshot taken before any observe()" state -- previously
#: indistinguishable from an under-evidenced crowd.
EMPTY_STREAM = "empty-stream"
UNDER_EVIDENCED = "under-evidenced"
VERDICT = "verdict"

#: Column sentinel for "no anchor / no day yet" in checkpoint columns
#: (chosen far outside any reachable day ordinal).
_NO_DAY = -(2**62)

#: Shared empty record for users the bulk path has not yet given cells.
_EMPTY_CELLS: "IntArray" = np.zeros(0, dtype=np.int64)

#: A freshly truncated record keeps getting its zone re-checked (and
#: corrected via ``reason="refine"`` events) until it holds this many
#: times ``min_reestimate_cells`` -- at which point one more cell cannot
#: move the placement and the estimate is considered settled.
_REFINE_SETTLED_FACTOR = 4.0

#: :meth:`StreamingGeolocator.observe_events` routes sized inputs holding at
#: least this many events through the vectorised bulk path; below it the
#: array setup costs more than the per-event loop it replaces.
BATCH_OBSERVE_THRESHOLD = 256


@dataclass(frozen=True)
class StreamSnapshot:
    """The state of the verdict at one point in the monitoring campaign."""

    n_events_seen: int
    n_users_seen: int
    n_users_active: int
    mixture: GaussianMixtureModel | None
    #: The placement histogram behind the verdict (None while
    #: under-evidenced).  Maintained incrementally by count deltas.
    placement: PlacementDistribution | None = None
    #: Crowd confidence digest; None unless the drift layer is enabled.
    confidence: ConfidenceSummary | None = None

    def is_empty_stream(self) -> bool:
        """True when the snapshot was taken before any ``observe()``."""
        return self.n_events_seen == 0

    def verdict_state(self) -> str:
        """Explicit tri-state: ``empty-stream``/``under-evidenced``/``verdict``.

        An empty stream used to be silently indistinguishable from an
        under-evidenced crowd; this is the explicit sentinel callers
        should branch on before asking for a verdict.
        """
        if self.is_empty_stream():
            return EMPTY_STREAM
        return VERDICT if self.mixture is not None else UNDER_EVIDENCED

    def dominant_mean(self) -> float:
        if self.mixture is None:
            if self.is_empty_stream():
                raise EmptyTraceError(
                    "empty stream: snapshot taken before any observe(); "
                    "check verdict_state() before asking for a verdict"
                )
            return float("nan")
        return self.mixture.dominant().mean

    def has_verdict(self) -> bool:
        return self.mixture is not None


class _UserState:
    """One user's versioned incremental Eq. 1 record.

    Active cells are kept as encoded ``day * 24 + hour`` integers (cheaper
    to hash and to checkpoint than tuples), in one of two forms: a sorted
    int64 array (``_frozen``) for records built by checkpoint restore or
    by bulk merges, or a python set once :meth:`add` touches the record.
    The bulk core merges a whole chunk into every array-backed record in
    one vectorised pass; set-backed records take a per-user loop.  The
    normalised profile row is cached and invalidated only when a new
    active cell appears, so snapshots reuse the row of every user whose
    activity pattern did not change since the previous snapshot.

    The record is *versioned*: ``record_version`` starts at 1 and is
    bumped by :meth:`truncate_to` when the drift layer re-estimates the
    user from their recent window -- ``counts`` then covers only cells
    with ``day >= anchor_day`` while the cell set keeps the full history
    for deduplication.  ``confidence`` (a
    :class:`~repro.core.drift.UserConfidence`) and the lazily built
    per-day hour bitmasks exist only when the drift layer asks for them;
    with drift disabled every new field is inert.
    """

    __slots__ = (
        "_cells",
        "_frozen",
        "counts",
        "n_posts",
        "_mass",
        "record_version",
        "confidence",
        "anchor_day",
        "last_check_day",
        "max_day",
        "_day_bits",
    )

    def __init__(self) -> None:
        self._cells: set[int] | None = set()
        # Checkpoint restore leaves the cells as a sorted int64 slice and
        # defers building the python set until this user is observed
        # again -- most restored users never are, so a million-user
        # checkpoint loads in seconds instead of materialising a million
        # sets up front.
        self._frozen: IntArray | None = None
        self.counts = np.zeros(HOURS, dtype=float)
        self.n_posts = 0
        self._mass: FloatArray | None = None
        # -- versioned-record / drift-lifecycle fields -------------------
        self.record_version = 1
        self.confidence: UserConfidence | None = None
        self.anchor_day: int | None = None
        self.last_check_day: int = _NO_DAY
        self.max_day: int = _NO_DAY
        self._day_bits: dict[int, int] | None = None

    @property
    def cells(self) -> set[int]:
        if self._cells is None:
            self._cells = set(self._frozen.tolist())
        return self._cells

    def n_cells(self) -> int:
        if self._cells is None:
            return int(self._frozen.size)
        return len(self._cells)

    def sorted_cells(self) -> list[int]:
        if self._cells is None:
            return self._frozen.tolist()
        return sorted(self._cells)

    def add(self, timestamp: float) -> bool:
        """Record one post; True when it opened a new in-record cell."""
        self.n_posts += 1
        day = int(timestamp // 86400.0)
        hour = int((timestamp % 86400.0) // 3600.0)
        if hour == HOURS:
            # Clipped as split_day_hours clips: a tiny negative stamp's
            # remainder rounds up to a whole day.
            hour = HOURS - 1
        if day > self.max_day:
            self.max_day = day
        cell = day * HOURS + hour
        if cell in self.cells:
            return False
        self._cells.add(cell)
        if self.anchor_day is not None and day < self.anchor_day:
            # A straggler from before the current record's anchor: keep it
            # for deduplication, but a truncated record never re-absorbs
            # pre-migration history.
            return False
        self.counts[hour] += 1.0
        if self._day_bits is not None:
            self._day_bits[day] = self._day_bits.get(day, 0) | (1 << hour)
        self._mass = None
        return True

    def mass(self) -> FloatArray:
        """Cached normalised 24-vector of the current record's cells."""
        if self._mass is None:
            total = self.counts.sum()
            if total <= 0.0:
                raise EmptyTraceError("no activity accumulated")
            self._mass = self.counts / total
        return self._mass

    # -- drift-lifecycle helpers ------------------------------------------

    def ensure_confidence(self, day: int) -> UserConfidence:
        """This user's confidence record, created at full on first use."""
        if self.confidence is None:
            self.confidence = UserConfidence(1.0, day)
        return self.confidence

    def day_bits(self) -> dict[int, int]:
        """``day -> 24-bit hour mask`` of the current record (lazy).

        Built once from the cell set (or the frozen checkpoint slice) and
        maintained incrementally by :meth:`add` afterwards, so window
        queries cost O(window days), not O(record cells).
        """
        if self._day_bits is None:
            bits: dict[int, int] = {}
            anchor = self.anchor_day
            source: Iterable[int]
            if self._cells is None:
                source = self._frozen.tolist()
            else:
                source = self._cells
            for encoded in source:
                day, hour = divmod(int(encoded), HOURS)
                if anchor is None or day >= anchor:
                    bits[day] = bits.get(day, 0) | (1 << hour)
            self._day_bits = bits
        return self._day_bits

    @staticmethod
    def _counts_of_bits(bits_by_day: Iterable[int]) -> FloatArray:
        counts = np.zeros(HOURS, dtype=float)
        for bits in bits_by_day:
            while bits:
                low = bits & -bits
                counts[low.bit_length() - 1] += 1.0
                bits &= bits - 1
        return counts

    def window_counts(self, start_day: int, end_day: int) -> FloatArray:
        """Hour counts of record cells with day in [start_day, end_day]."""
        bits_by_day = self.day_bits()
        selected: Iterable[int]
        if len(bits_by_day) <= end_day - start_day + 1:
            selected = (
                bits for day, bits in bits_by_day.items()
                if start_day <= day <= end_day
            )
        else:
            selected = (
                bits_by_day.get(day, 0) for day in range(start_day, end_day + 1)
            )
        return self._counts_of_bits(selected)

    def truncate_to(self, anchor_day: int) -> None:
        """Open a new record version holding only days >= *anchor_day*."""
        kept = {
            day: bits for day, bits in self.day_bits().items() if day >= anchor_day
        }
        self._day_bits = kept
        self.counts = self._counts_of_bits(kept.values())
        self.anchor_day = anchor_day
        self.record_version += 1
        self._mass = None


class StreamingGeolocator:
    """Online version of the pipeline: O(1) per event, O(dirty) per snapshot.

    Invariant maintained between snapshots: for every user, either the
    user is in the dirty set, or their cached zone assignment / flat flag
    / histogram contribution equals what a cold full re-place would
    compute.  ``observe`` only dirties a user when their Eq. 1 profile can
    actually have changed (new active cell, or a drift re-estimation
    truncating their record) or their activity status can have flipped
    (post count reaching ``min_posts``), so a quiet crowd costs nothing
    to snapshot.

    With *drift* supplied, every new Eq. 1 cell also advances the user's
    confidence lifecycle (at most one check per
    ``drift.check_interval_days`` stream days per user); re-estimations
    go through the same dirty set, which is what keeps ``snapshot()``
    equal to ``snapshot_reference()`` whether or not migrations fired.
    The wall-clock stamps on emitted migration events are read through
    the injectable seam of :mod:`repro.reliability.clocks` (``wall_clock``
    parameter), never ``time.time()`` directly.
    """

    def __init__(
        self,
        references: ReferenceProfiles | None = None,
        *,
        metric: str = "linear",
        min_posts: int = 30,
        sigma_init: float = PAPER_SIGMA,
        max_components: int = 4,
        min_users_for_verdict: int = 10,
        drift: DriftConfig | None = None,
        wall_clock: WallClockFn | None = None,
    ) -> None:
        self.references = references or ReferenceProfiles.canonical()
        self.metric = metric
        self.min_posts = min_posts
        self.sigma_init = sigma_init
        self.max_components = max_components
        self.min_users_for_verdict = min_users_for_verdict
        self._users: dict[str, _UserState] = {}
        self._n_events = 0
        # Incremental placement state (see class docstring invariant).
        self._dirty: set[str] = set()
        self._zone_of: dict[str, int] = {}
        self._flat_ids: set[str] = set()
        self._hist = np.zeros(len(ZONE_OFFSETS), dtype=np.int64)
        self._matrix_cache: ProfileMatrix | None = None
        # -- temporal-drift layer (inert when drift is None) --------------
        self.drift = drift
        self._wall_now: WallClockFn = wall_clock if wall_clock is not None else wall_now
        self._detector = ChangePointDetector(drift) if drift is not None else None
        self._stream_day: int | None = None
        self.timeline: CompositionTimeline | None = (
            CompositionTimeline() if drift is not None else None
        )
        self.migrations: list[ZoneMigrationEvent] = []
        self._migration_subscribers: list[Callable[[ZoneMigrationEvent], None]] = []
        # Users whose post-migration record is still thin get their zone
        # re-checked at each lifecycle check until it settles; the value
        # is the latest estimate a correction would be issued against.
        self._pending_refine: dict[str, ZoneMigrationEvent] = {}
        # Observatory bookkeeping: event counts at the last snapshot /
        # checkpoint.  Plain attributes outside state_dict(), so engine
        # state and checkpoint bytes are untouched (bit-identity gate).
        self._snapshot_events: int = 0
        self._checkpoint_events: int | None = None
        self._checkpoint_wall: float | None = None

    def observe(self, user_id: str, timestamp: float) -> None:
        """Feed one (author, UTC timestamp) observation."""
        state = self._users.get(user_id)
        if state is None:
            state = self._users[user_id] = _UserState()
        # No float() coercion: the binning arithmetic in _UserState.add is
        # bit-identical for python floats, ints and numpy float64 scalars.
        opened_cell = state.add(timestamp)
        if opened_cell or state.n_posts == self.min_posts:
            self._dirty.add(user_id)
        self._n_events += 1
        if self.drift is not None and opened_cell:
            self._drift_on_new_cell(user_id, state)

    def observe_events(self, events: Iterable[PostEvent]) -> None:
        """Feed many events; large sized inputs take the vectorised path.

        Anything with a ``len()`` of at least
        :data:`BATCH_OBSERVE_THRESHOLD` is routed through
        :meth:`observe_batch` (bit-identical to the serial loop, an order
        of magnitude faster); generators and small inputs keep the
        per-event loop.
        """
        if isinstance(events, Sized) and len(events) >= BATCH_OBSERVE_THRESHOLD:
            size = len(events)
            user_ids = [event.user_id for event in events]
            stamps = np.fromiter(
                (event.timestamp for event in events),
                dtype=np.float64,
                count=size,
            )
            self.observe_batch(user_ids, stamps)
            return
        for event in events:
            self.observe(event.user_id, event.timestamp)

    def observe_batch(
        self,
        user_ids: "Sequence[str]",
        timestamps: "FloatArray | Sequence[float]",
    ) -> int:
        """Vectorised bulk intake of one chunk of (author, timestamp) events.

        Bit-identical to calling :meth:`observe` once per event in the
        given order -- snapshots, confidence lifecycle, migration events
        and checkpoints all match the per-event loop exactly (the property
        tests in ``tests/test_streaming_batch.py`` interleave the two
        freely) -- while the heavy lifting (cell binning, per-user
        grouping, deduplication) runs as array operations through the
        :mod:`repro.core.kernels` segmented kernel.  Returns the
        number of events ingested.  A non-finite timestamp raises
        :class:`~repro.errors.CorruptTraceError` before any event of the
        chunk is ingested.
        """
        stamps = np.ascontiguousarray(timestamps, dtype=np.float64)
        if stamps.ndim != 1:
            raise ValueError(f"timestamps must be 1-D, got shape {stamps.shape}")
        n = int(stamps.size)
        if len(user_ids) != n:
            raise ValueError(
                f"user_ids ({len(user_ids)}) and timestamps ({n}) disagree"
            )
        if n == 0:
            return 0
        if isinstance(user_ids, np.ndarray):
            user_ids = user_ids.astype(str).tolist()
        # Factorise author ids to dense codes numbered in first-appearance
        # order -- state creation order must match the per-event loop (the
        # checkpoint columns follow ``self._users`` insertion order).
        index: dict[str, int] = {}
        codes = np.fromiter(
            (index.setdefault(user_id, len(index)) for user_id in user_ids),
            dtype=np.int64,
            count=n,
        )
        uniq = list(index)
        lengths = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        order = np.argsort(codes, kind="stable").astype(np.int64)
        with trace_span("streaming_observe_batch", n_events=n, n_users=len(uniq)):
            self._ingest_grouped(uniq, lengths, stamps[order], order)
        obs_metrics.counter(
            "repro_streaming_batch_events_total",
            "events ingested through the vectorised bulk path",
        ).inc(n)
        return n

    def ingest_store(
        self,
        store: "TraceStore",
        *,
        max_posts: int = 262144,
        on_chunk: "Callable[[int, float], None] | None" = None,
    ) -> int:
        """Replay every (user, timestamp) of a :class:`TraceStore` in bulk.

        Equivalent to observing each user's full trace in store order --
        the natural replay/backfill order -- through :meth:`observe`.
        Chunking at *max_posts* events bounds peak memory without changing
        any result: chunk boundaries never split a user, and the store
        columns arrive pre-grouped, so the per-chunk regrouping of
        :meth:`observe_batch` is skipped entirely.  Returns the number of
        events ingested.  A chunk holding a non-finite timestamp raises
        :class:`~repro.errors.CorruptTraceError` before any of its events
        is ingested (earlier chunks stay ingested).

        *on_chunk*, when given, is called after each ingested chunk with
        ``(events_so_far, max_chunk_timestamp)`` -- the observatory hook
        the CLI uses to tick its sampler on stream time.  It never
        changes what is ingested, and the default ``None`` keeps the loop
        byte-for-byte on the pre-observatory path.
        """
        total = 0
        with trace_span("streaming_ingest_store", max_posts=max_posts):
            for ids, lengths, stamps in store.iter_column_chunks(
                max_posts=max_posts
            ):
                self._ingest_grouped(ids, lengths, stamps, None)
                total += int(stamps.size)
                if on_chunk is not None and stamps.size:
                    on_chunk(total, float(stamps.max()))
        obs_metrics.counter(
            "repro_streaming_batch_events_total",
            "events ingested through the vectorised bulk path",
        ).inc(total)
        return total

    def _ingest_grouped(
        self,
        user_ids: "Sequence[str]",
        lengths: "IntArray",
        stamps: "FloatArray",
        positions: "IntArray | None",
    ) -> None:
        """The one bulk core: ingest a chunk already grouped by user.

        *stamps* holds each user's chunk events back to back, preserving
        their original relative order within the user; *positions* maps
        each grouped event back to its index in the original interleaved
        chunk (``None`` when the grouped order *is* the original order,
        as for store replay).  The chunk is binned once into per-user
        sorted unique cells.

        With drift on, a user with no confidence record yet, or whose
        lifecycle check is due (:meth:`DriftConfig.check_due`) at the
        newest day the chunk can reach, replays their events through
        :meth:`observe` in original chunk order: migration-log order
        depends on how users interleave.  Every other user is merged --
        array-backed records in one :meth:`_vector_apply` pass, set-backed
        ones through :meth:`_apply_unique_cells`.  Bit-identity with the
        per-event loop rests on facts the property tests pin down: a
        merged user's chunk can fire no check; counts, day bitmaps and
        ``max_day`` change only at events that open a new in-record cell,
        so a user who opened one is dirty and (drift on) the stream clock
        ends at their newest ``max_day``; and the ``min_posts`` promotion
        fires exactly when the chunk crosses the threshold.
        """
        n_users = len(user_ids)
        lengths = np.ascontiguousarray(lengths, dtype=np.int64)
        if lengths.size != n_users:
            raise ValueError(
                f"user_ids ({n_users}) and lengths ({lengths.size}) disagree"
            )
        if int(lengths.sum()) != stamps.size:
            raise ValueError("lengths do not cover the stamp column")
        if stamps.size == 0:
            return
        finite = np.isfinite(stamps)
        if not bool(finite.all()):
            bad = int(np.argmin(finite))
            culprit = int(np.searchsorted(np.cumsum(lengths), bad, side="right"))
            raise CorruptTraceError(
                f"user {user_ids[culprit]!r} has a non-finite timestamp "
                f"({float(stamps[bad])}); nothing of this chunk was ingested"
            )
        if bool((lengths == 0).any()):
            # A zero-length user never reaches observe() in the per-event
            # loop, so it must not acquire state here either.
            keep = lengths > 0
            user_ids = [u for u, k in zip(user_ids, keep) if k]
            lengths = lengths[keep]
            n_users = len(user_ids)
        states: list[_UserState] = []
        for user_id in user_ids:
            state = self._users.get(user_id)
            if state is None:
                state = self._users[user_id] = _UserState()
            states.append(state)
        unique_cells, cell_lengths = segment_unique_cells(stamps, lengths)
        cell_starts = np.zeros(n_users + 1, dtype=np.int64)
        np.cumsum(cell_lengths, out=cell_starts[1:])
        config = self.drift
        replay = [False] * n_users
        if config is not None:
            # Cells are sorted per user, so each segment's last cell holds
            # the newest day this chunk can reach.
            newest_days = (unique_cells[cell_starts[1:] - 1] // HOURS).tolist()
            replay = [
                state.confidence is None
                or config.check_due(
                    max(state.max_day, newest), state.last_check_day
                )
                for state, newest in zip(states, newest_days)
            ]
        opened: list[int] = []
        records: list[IntArray] = []
        vectorised: list[int] = []
        for i, (state, length) in enumerate(zip(states, lengths.tolist())):
            if replay[i]:
                continue
            record = self._frozen_record(state)
            if record is not None:
                records.append(record)
                vectorised.append(i)
            elif self._apply_unique_cells(
                state, unique_cells[cell_starts[i] : cell_starts[i + 1]]
            ):
                opened.append(i)
            before = state.n_posts
            state.n_posts = before + length
            if before < self.min_posts <= state.n_posts:
                # The chunk crossed the activity threshold: exactly one of
                # its events had n_posts == min_posts in the per-event
                # loop, which dirties the user even with no new cell.
                self._dirty.add(user_ids[i])
        if vectorised:
            opened += self._vector_apply(
                states, vectorised, records, unique_cells, cell_lengths, cell_starts
            )
        for i in opened:
            self._dirty.add(user_ids[i])
            # Each opened cell moves the stream clock in the per-event
            # loop; the newest of them is the user's final max_day.
            if config is not None and (
                self._stream_day is None or states[i].max_day > self._stream_day
            ):
                self._stream_day = states[i].max_day
        replayed = 0
        if any(replay):
            owner = np.repeat(np.arange(n_users, dtype=np.int64), lengths)
            events = np.flatnonzero(np.asarray(replay)[owner])
            if positions is not None:
                events = events[np.argsort(positions[events], kind="stable")]
            for user, timestamp in zip(
                owner[events].tolist(), stamps[events].tolist()
            ):
                self.observe(user_ids[user], timestamp)
            # observe() counted these events already.
            replayed = int(events.size)
        self._n_events += int(stamps.size) - replayed

    @staticmethod
    def _apply_unique_cells(state: _UserState, seg: "IntArray") -> bool:
        """Merge one chunk's sorted unique cells into *state*'s record.

        Returns True when at least one *in-record* cell opened -- exactly
        the chunks for which the per-event loop would have dirtied the
        user.  ``n_posts`` bookkeeping is left to the caller.
        """
        cells = state.cells
        counts = state.counts
        bits = state._day_bits
        anchor = state.anchor_day
        max_day = state.max_day
        opened = False
        for cell in seg.tolist():
            if cell in cells:
                continue
            cells.add(cell)
            day = cell // HOURS
            if day > max_day:
                max_day = day
            if anchor is not None and day < anchor:
                # Pre-anchor straggler: deduplicated, never re-counted.
                continue
            counts[cell % HOURS] += 1.0
            if bits is not None:
                bits[day] = bits.get(day, 0) | (1 << (cell % HOURS))
            opened = True
        state.max_day = max_day
        if opened:
            state._mass = None
        return opened

    @staticmethod
    def _frozen_record(state: _UserState) -> "IntArray | None":
        """*state*'s record as a sorted cell array, or None if set-backed.

        Records touched only by the bulk path stay as sorted int64 arrays
        (the checkpoint-restore representation), which is what lets one
        chunk be diffed against *all* its users' records in a single
        vectorised pass.  Records with per-event history (a materialised
        set, or drift day-bitmaps) fall back to the per-user loop.
        """
        if state._day_bits is not None:
            return None
        if state._cells is None:
            return state._frozen
        if state.n_posts == 0 and not state._cells and state.anchor_day is None:
            return _EMPTY_CELLS
        return None

    @classmethod
    def _vector_apply(
        cls,
        states: "list[_UserState]",
        vectorised: "list[int]",
        records: "list[IntArray]",
        unique_cells: "IntArray",
        cell_lengths: "IntArray",
        cell_starts: "IntArray",
    ) -> list[int]:
        """Diff + merge one chunk against many records in one numpy pass.

        Records and chunk candidates are encoded as ``user * span + cell``
        keys (both sorted user-major, so membership is one searchsorted),
        new cells are spliced into one merged key column, and every user's
        record is re-pointed at its slice of the decoded result.  The
        per-user outcome -- cells, counts (anchor-masked), ``max_day`` --
        is identical to running :meth:`_apply_unique_cells` per user,
        which is the fallback when the key encoding would overflow int64.
        Returns the indices (into *states*) of the users whose record
        opened an in-record cell.
        """
        n_vec = len(vectorised)
        selector = np.asarray(vectorised, dtype=np.int64)
        if n_vec == len(states):
            cand = unique_cells
            cand_lengths = cell_lengths
        else:
            cand = np.concatenate(
                [
                    unique_cells[cell_starts[i] : cell_starts[i + 1]]
                    for i in vectorised
                ]
            )
            cand_lengths = cell_lengths[selector]
        record_lengths = np.fromiter(
            (record.size for record in records), dtype=np.int64, count=n_vec
        )
        record_cells = (
            np.concatenate(records) if record_lengths.any() else _EMPTY_CELLS
        )
        cell_min = int(cand.min())
        cell_max = int(cand.max())
        if record_cells.size:
            cell_min = min(cell_min, int(record_cells.min()))
            cell_max = max(cell_max, int(record_cells.max()))
        span = cell_max - cell_min + 1
        if n_vec * span >= 2**62:
            # Pathological cell range: the encoded keys would overflow.
            return [
                i
                for i in vectorised
                if cls._apply_unique_cells(
                    states[i], unique_cells[cell_starts[i] : cell_starts[i + 1]]
                )
            ]
        record_owner = np.repeat(
            np.arange(n_vec, dtype=np.int64), record_lengths
        )
        cand_owner = np.repeat(np.arange(n_vec, dtype=np.int64), cand_lengths)
        record_keys = record_owner * span + (record_cells - cell_min)
        cand_keys = cand_owner * span + (cand - cell_min)
        if record_keys.size:
            at = np.minimum(
                np.searchsorted(record_keys, cand_keys), record_keys.size - 1
            )
            new_mask = record_keys[at] != cand_keys
        else:
            new_mask = np.ones(cand_keys.size, dtype=bool)
        new_keys = cand_keys[new_mask]
        new_cells = cand[new_mask]
        new_owner = cand_owner[new_mask]
        merged_keys = np.insert(
            record_keys, np.searchsorted(record_keys, new_keys), new_keys
        )
        merged_owner = merged_keys // span
        merged_cells = merged_keys - merged_owner * span + cell_min
        merged_starts = np.zeros(n_vec + 1, dtype=np.int64)
        np.cumsum(
            record_lengths + np.bincount(new_owner, minlength=n_vec),
            out=merged_starts[1:],
        )
        # In-record (counted) new cells: at or after the record anchor.
        anchors = np.fromiter(
            (
                _NO_DAY if states[i].anchor_day is None else states[i].anchor_day
                for i in vectorised
            ),
            dtype=np.int64,
            count=n_vec,
        )
        counted_mask = (new_cells // HOURS) >= anchors[new_owner]
        counted_owner = new_owner[counted_mask]
        counted_cells = new_cells[counted_mask]
        deltas = (
            np.bincount(
                counted_owner * HOURS + counted_cells % HOURS,
                minlength=n_vec * HOURS,
            )
            .reshape(n_vec, HOURS)
            .astype(float)
        )
        opened = np.bincount(counted_owner, minlength=n_vec) > 0
        for j, i in enumerate(vectorised):
            state = states[i]
            state._cells = None
            state._frozen = merged_cells[merged_starts[j] : merged_starts[j + 1]]
            # max_day equals the record's newest cell day: duplicates and
            # stragglers can never raise it past their first occurrence.
            state.max_day = int(merged_cells[merged_starts[j + 1] - 1]) // HOURS
            if opened[j]:
                state.counts = state.counts + deltas[j]
                state._mass = None
        return [vectorised[j] for j in np.flatnonzero(opened).tolist()]

    @property
    def n_events(self) -> int:
        return self._n_events

    def n_users(self) -> int:
        return len(self._users)

    def n_dirty(self) -> int:
        """Users whose cached placement must be refreshed at next snapshot."""
        return len(self._dirty)

    def heartbeat(self) -> dict[str, float]:
        """Cheap liveness gauges for the health observatory.

        O(users) only when drift is enabled (the confidence digest);
        otherwise O(zone bins).  The sampler
        (:meth:`repro.obs.timeseries.SeriesSampler.bind_streaming_engine`)
        reads this at its own cadence, so nothing here runs unless an
        observatory is attached -- the hot ingest path never calls it.

        ``snapshot_lag_events`` / ``checkpoint_lag_events`` count events
        ingested since the last :meth:`snapshot` / :meth:`save_checkpoint`
        (all events so far when neither has happened yet): deterministic
        staleness measures that need no wall clock.
        """
        checkpointed = self._checkpoint_events or 0
        beat: dict[str, float] = {
            "events_total": float(self._n_events),
            "users_seen": float(len(self._users)),
            # Placements standing in the histogram as of the last refresh
            # (0 until the first snapshot; never recomputed here -- a
            # heartbeat must not trigger the O(dirty) refresh).
            "users_placed": float(self._hist.sum()),
            "dirty_users": float(len(self._dirty)),
            "migrations_total": float(len(self.migrations)),
            "snapshot_lag_events": float(self._n_events - self._snapshot_events),
            "checkpoint_lag_events": float(self._n_events - checkpointed),
        }
        if self._checkpoint_wall is not None:
            beat["checkpoint_age_s"] = float(self._wall_now() - self._checkpoint_wall)
        if self.drift is not None:
            if self._stream_day is not None:
                beat["stream_day"] = float(self._stream_day)
            summary = self._confidence_summary()
            if summary.n_tracked:
                beat["confidence_mean"] = summary.mean
                beat["confidence_min"] = summary.minimum
                beat["stale_ratio"] = summary.n_stale / summary.n_tracked
        return beat

    def invalidate_all(self) -> None:
        """Force the next snapshot to re-place every user (cold path).

        Exists for benchmarking the incremental win and for callers that
        mutate shared state behind the geolocator's back (e.g. swapping
        reference profiles in place).
        """
        self._dirty.update(self._users)
        self._matrix_cache = None

    # -- temporal-drift lifecycle -----------------------------------------

    def on_migration(
        self, callback: Callable[[ZoneMigrationEvent], None]
    ) -> Callable[[ZoneMigrationEvent], None]:
        """Subscribe *callback* to every emitted zone-migration event.

        Returns the callback so the method works as a decorator.  Events
        are also retained on :attr:`migrations` for post-hoc inspection.
        """
        self._migration_subscribers.append(callback)
        return callback

    def _drift_on_new_cell(self, user_id: str, state: _UserState) -> None:
        """Advance the stream clock and run the throttled lifecycle check."""
        config = self.drift
        if config is None:
            return
        day = state.max_day
        if self._stream_day is None or day > self._stream_day:
            self._stream_day = day
        confidence = state.ensure_confidence(day)
        if day - state.last_check_day < config.check_interval_days:
            return
        self._drift_check(user_id, state, confidence, day)

    def _drift_check(
        self,
        user_id: str,
        state: _UserState,
        confidence: UserConfidence,
        now_day: int,
    ) -> None:
        """One confidence-lifecycle step: decay, compare, maybe re-estimate.

        The recent window (last ``window_days`` of the record) is compared
        against the record's pre-window history with the configured EMD.
        Window agreeing with history re-verifies the placement (confidence
        back to full); a change-point score or a below-threshold decayed
        confidence triggers re-estimation from the window.
        """
        config = self.drift
        detector = self._detector
        if config is None or detector is None:
            return
        state.last_check_day = now_day
        obs_metrics.counter(
            "repro_stream_drift_checks_total",
            "per-user confidence-lifecycle checks run",
        ).inc()
        if user_id in self._pending_refine:
            self._refine(user_id, state, confidence, now_day)
            if user_id in self._pending_refine:
                # Still settling: the record is too young for the
                # change-point machinery to say anything new.
                return
        window_start = now_day - config.window_days + 1
        window = state.window_counts(window_start, now_day)
        if window.sum() < config.min_window_cells:
            # Casual posters: "recent behaviour" just spans more days for
            # them.  Stretch the window back (up to 4x) until it holds
            # enough cells, instead of leaving them forever uncheckable.
            limit = now_day - 4 * config.window_days + 1
            bits = state.day_bits()
            for day in sorted(
                (d for d in bits if limit <= d < window_start), reverse=True
            ):
                window = window + _UserState._counts_of_bits((bits[day],))
                window_start = day
                if window.sum() >= config.min_window_cells:
                    break
        history = state.counts - window
        window_ok, history_ok = detector.has_evidence(window, history)
        if not window_ok:
            # Too little recent evidence to judge; confidence keeps
            # decaying until the window fills back up.
            return
        if not history_ok:
            # Young record: the window *is* the record, nothing to drift
            # from -- fresh consistent evidence re-verifies.
            confidence.reset(now_day)
            return
        score = detector.score(window, history)
        effective = confidence.effective(now_day, config.decay_per_day)
        if score > config.screen_threshold:
            # The windowed score dilutes as post-change data bleeds into
            # the history, so it only screens; the localised split score
            # (undiluted, pure prefix vs pure suffix) makes the call.
            anchor, split_score = self._split_change_day(state, now_day)
            if detector.fires(split_score):
                self._reestimate(
                    user_id,
                    state,
                    now_day,
                    anchor,
                    split_score,
                    effective,
                    "change-point",
                )
                return
        if effective >= config.confidence_threshold:
            confidence.reset(now_day)
            return
        # Confidence has decayed below threshold without a change-point.
        # Re-verify from the window first (ADR-003): a window placing
        # within one zone of the full record (placement itself has ~1 h
        # of chronotype noise) restores confidence without touching the
        # record; only a clearly disagreeing window migrates.
        window_index, window_flat = self._place_from_counts(window, state)
        record_index, record_flat = self._place_single(state)
        agrees = window_flat == record_flat and (
            (window_index is None and record_index is None)
            or (
                window_index is not None
                and record_index is not None
                and abs(window_index - record_index) <= 1
            )
        )
        if agrees:
            confidence.reset(now_day)
            return
        anchor, split_score = self._split_change_day(state, now_day)
        self._reestimate(
            user_id,
            state,
            now_day,
            anchor,
            split_score if split_score >= 0.0 else score,
            effective,
            "confidence",
        )

    def _place_from_counts(
        self, counts: FloatArray, state: _UserState
    ) -> "tuple[int | None, bool]":
        """(zone index, flat flag) a record with *counts* would be assigned."""
        if state.n_posts < self.min_posts:
            return None, False
        total = counts.sum()
        if total <= 0.0:
            return None, False
        matrix = ProfileMatrix(["_"], (counts / total)[None, :])
        flat, nearest = classify_profiles(matrix, self.references, self.metric)
        if bool(flat[0]):
            return None, True
        return int(nearest[0]), False

    def _place_single(self, state: _UserState) -> "tuple[int | None, bool]":
        """(zone index, flat flag) the next refresh will assign this record."""
        return self._place_from_counts(state.counts, state)

    def zone_index_of(self, user_id: str) -> "int | None":
        """Index into ``ZONE_OFFSETS`` of *user_id*'s current placement.

        ``None`` for unknown, under-evidenced, or flat-filtered users.
        Clean users are read from the incremental cache; dirty ones are
        placed fresh, so the answer never depends on snapshot cadence.
        """
        if user_id not in self._dirty:
            return self._zone_of.get(user_id)
        state = self._users.get(user_id)
        if state is None:
            return None
        index, flat = self._place_single(state)
        return None if flat else index

    def _split_change_day(
        self, state: _UserState, now_day: int
    ) -> "tuple[int, float]":
        """(most likely change day, localised split score) for the record.

        The rolling window usually *straddles* the actual change (checks
        run every ``check_interval_days``), so re-estimating from the
        whole window would mix pre- and post-change behaviour and place
        the user somewhere in between.  Scanning every split of the
        record for the one maximising the EMD between its two sides pins
        the change day; only the suffix from there on feeds the
        re-estimate, and for changes older than the window that suffix is
        *longer* than the window -- casual posters still accumulate
        enough post-change cells to re-place reliably.  The returned
        score is ``-1.0`` when no split leaves both sides enough cells.
        """
        config = self.drift
        detector = self._detector
        if config is None or detector is None:
            return now_day, -1.0
        bits = state.day_bits()
        if not bits:
            return now_day, -1.0
        active_days = sorted(bits)
        total = state.counts.astype(float)
        # Tiny split sides have huge EMD sampling noise, and the argmax
        # over a record's worth of candidate splits would happily pick a
        # six-cell tail and call it a migration -- the size discount in
        # :meth:`ChangePointDetector.split_score` flattens that noise
        # floor, so the hard floor here only prunes hopeless splits (the
        # commit floor on the post-change suffix is separate, in
        # :meth:`_reestimate`).
        min_side = float(max(8, config.min_reestimate_cells // 2))
        prefix = np.zeros(HOURS, dtype=float)
        best_day = active_days[0]
        best_score = -1.0
        for day in active_days[:-1]:
            prefix = prefix + _UserState._counts_of_bits((bits[day],))
            suffix = total - prefix
            if prefix.sum() < min_side or suffix.sum() < min_side:
                continue
            score = detector.split_score(prefix, suffix)
            if score > best_score:
                best_score = score
                best_day = day + 1
        return best_day, best_score

    def _reestimate(
        self,
        user_id: str,
        state: _UserState,
        now_day: int,
        anchor: int,
        score: float,
        effective: float,
        reason: str,
    ) -> None:
        """Truncate the record at the estimated change day and re-place.

        When the post-change suffix is still too thin to place reliably,
        the re-estimate is deferred -- the signal will fire again at the
        next check, by which time more post-change evidence has arrived.
        Otherwise the user joins the dirty set, so the placement histogram
        absorbs the change through the ordinary delta machinery at the
        next snapshot.  A :class:`ZoneMigrationEvent` is emitted only when
        the placement outcome actually changed; old and new placements are
        both computed fresh (pre- and post-truncation), so event emission
        does not depend on how often the caller snapshots.
        """
        config = self.drift
        if config is None:
            return
        recent = state.window_counts(anchor, now_day)
        if float(recent.sum()) < config.min_reestimate_cells:
            obs_metrics.counter(
                "repro_stream_drift_deferrals_total",
                "re-estimates deferred for thin post-change evidence",
            ).inc()
            return
        with trace_span("drift_reestimate", user_id=user_id, reason=reason):
            # The pre-change placement comes from the record *prefix*: by
            # detection time the full record already mixes in post-change
            # cells, which would drag the reported old zone toward the
            # new one.
            old_index, was_flat = self._place_from_counts(
                state.counts - recent, state
            )
            state.truncate_to(anchor)
            new_index, new_flat = self._place_single(state)
            state.ensure_confidence(now_day).reset(now_day)
            self._dirty.add(user_id)
            self._matrix_cache = None
        obs_metrics.counter(
            "repro_stream_drift_reestimates_total",
            "record truncations after a drift signal",
        ).inc()
        event = ZoneMigrationEvent(
            user_id=user_id,
            old_offset=None if old_index is None else ZONE_OFFSETS[old_index],
            new_offset=None if new_index is None else ZONE_OFFSETS[new_index],
            day=now_day,
            emd_score=score,
            confidence=effective,
            window_cells=int(recent.sum()),
            reason=reason,
            record_version=state.record_version,
            wall_time=self._wall_now(),
        )
        # The zone is re-checked at later lifecycle checks until the
        # truncated record settles, whether or not an event fires now.
        self._pending_refine[user_id] = event
        if new_index == old_index and new_flat == was_flat:
            return
        self._emit_migration(event)

    def _refine(
        self,
        user_id: str,
        state: _UserState,
        confidence: UserConfidence,
        now_day: int,
    ) -> None:
        """Correct a recent migration's zone as its thin record fills in.

        A migration is announced from whatever post-change evidence has
        accrued by detection time (roughly ``min_reestimate_cells``), and
        a placement from that little data carries an extra zone or two of
        sampling noise on top of the user's chronotype bias.  Until the
        truncated record reaches ``_REFINE_SETTLED_FACTOR`` times the
        commit floor, each lifecycle check re-places it and emits a
        ``reason="refine"`` correction event whenever the zone moved --
        so the *last* event per user converges to what a from-scratch
        re-fit of the post-change data would say.  Tracking is in-memory
        only: a checkpoint round-trip drops pending refinements (the
        truncated record itself persists, so the placement stays right).
        """
        config = self.drift
        prior = self._pending_refine[user_id]
        if config is None:
            del self._pending_refine[user_id]
            return
        cells = float(state.counts.sum())
        settled = cells >= _REFINE_SETTLED_FACTOR * config.min_reestimate_cells
        if settled:
            del self._pending_refine[user_id]
        new_index, new_flat = self._place_single(state)
        if new_flat:
            return
        confidence.reset(now_day)
        new_offset = None if new_index is None else int(ZONE_OFFSETS[new_index])
        if new_offset is None or new_offset == prior.new_offset:
            return
        event = ZoneMigrationEvent(
            user_id=user_id,
            old_offset=prior.new_offset,
            new_offset=new_offset,
            day=now_day,
            emd_score=prior.emd_score,
            confidence=confidence.value,
            window_cells=int(cells),
            reason="refine",
            record_version=state.record_version,
            wall_time=self._wall_now(),
        )
        if not settled:
            self._pending_refine[user_id] = event
        self._emit_migration(event)

    def _emit_migration(self, event: ZoneMigrationEvent) -> None:
        """Log *event* and fan it out to subscribers."""
        self.migrations.append(event)
        obs_metrics.counter(
            "repro_stream_drift_migrations_total",
            "zone-migration events emitted",
            reason=event.reason,
        ).inc()
        for subscriber in self._migration_subscribers:
            subscriber(event)

    def _confidence_summary(self) -> ConfidenceSummary:
        """Crowd-level effective-confidence digest (drift enabled only)."""
        config = self.drift
        if config is None:
            raise ValueError("confidence summary requires the drift layer")
        now_day = self._stream_day if self._stream_day is not None else 0
        values = [
            state.confidence.effective(now_day, config.decay_per_day)
            for state in self._users.values()
            if state.n_posts >= self.min_posts and state.confidence is not None
        ]
        if not values:
            return ConfidenceSummary(
                n_tracked=0,
                mean=float("nan"),
                minimum=float("nan"),
                n_stale=0,
                threshold=config.confidence_threshold,
            )
        array = np.asarray(values, dtype=float)
        n_stale = int((array < config.confidence_threshold).sum())
        obs_metrics.gauge(
            "repro_stream_drift_stale_users",
            "placed users below the confidence threshold",
        ).set(n_stale)
        return ConfidenceSummary(
            n_tracked=len(values),
            mean=float(array.mean()),
            minimum=float(array.min()),
            n_stale=n_stale,
            threshold=config.confidence_threshold,
        )

    # -- incremental placement --------------------------------------------

    def _refresh(self) -> None:
        """Re-place exactly the dirty users and patch the histogram.

        Each dirty user's stale contribution is first subtracted, then --
        if they pass the activity threshold -- flatness and the nearest
        zone are recomputed in one
        :func:`~repro.core.placement.classify_profiles` pass for all dirty
        users at once.  Distances are per-row independent, so the result
        is bit-identical to a cold full re-place no matter how the work
        was batched across snapshots.
        """
        if not self._dirty:
            return
        pending: list[str] = []
        for user_id in self._dirty:
            old_zone = self._zone_of.pop(user_id, None)
            if old_zone is not None:
                self._hist[old_zone] -= 1
            self._flat_ids.discard(user_id)
            if self._users[user_id].n_posts >= self.min_posts:
                pending.append(user_id)
        self._dirty.clear()
        self._matrix_cache = None
        if not pending:
            return
        rows = np.vstack([self._users[user_id].mass() for user_id in pending])
        matrix = ProfileMatrix(pending, rows)
        # The same classifier the cold pipeline polishes and places with;
        # distances are per-row independent, so batching users differently
        # across snapshots cannot change any individual verdict.
        flat, nearest = classify_profiles(matrix, self.references, self.metric)
        for user_id, is_flat, zone in zip(pending, flat, nearest):
            if is_flat:
                self._flat_ids.add(user_id)
            else:
                self._zone_of[user_id] = int(zone)
                self._hist[int(zone)] += 1

    def _active_matrix(self) -> ProfileMatrix:
        """One matrix of all threshold-passing, non-flat users.

        Cached between snapshots and invalidated through the same dirty
        set as the placement histogram, so repeated snapshots of a quiet
        crowd rebuild nothing.  Row order follows first-observation order
        (``self._users`` insertion order), matching the cold pipeline.
        """
        self._refresh()
        if self._matrix_cache is None:
            ids = [user_id for user_id in self._users if user_id in self._zone_of]
            if not ids:
                self._matrix_cache = ProfileMatrix.empty()
            else:
                self._matrix_cache = ProfileMatrix(
                    ids, np.vstack([self._users[u].mass() for u in ids])
                )
        return self._matrix_cache

    def active_profiles(self) -> dict[str, Profile]:
        """Profiles of users past the activity threshold, bots filtered."""
        return self._active_matrix().profiles()

    def _snapshot_from_hist(self) -> StreamSnapshot:
        n_active = int(self._hist.sum())
        placement = None
        mixture = None
        if n_active > 0 and n_active >= self.min_users_for_verdict:
            fractions = self._hist / n_active
            placement = PlacementDistribution(
                tuple(fractions.tolist()), n_users=n_active
            )
            mixture = select_mixture(
                placement,
                max_components=self.max_components,
                sigma_init=self.sigma_init,
            )
        confidence_summary: ConfidenceSummary | None = None
        if self.drift is not None:
            confidence_summary = self._confidence_summary()
            if self.timeline is not None and self._stream_day is not None:
                self.timeline.record(self._stream_day, self._hist)
        return StreamSnapshot(
            n_events_seen=self._n_events,
            n_users_seen=len(self._users),
            n_users_active=n_active,
            mixture=mixture,
            placement=placement,
            confidence=confidence_summary,
        )

    def snapshot(self) -> StreamSnapshot:
        """The current verdict (or None while under-evidenced).

        Costs O(dirty users + histogram bins): only users invalidated
        since the previous snapshot are re-placed, and the placement
        histogram is patched by count deltas rather than recounted.  With
        drift enabled the snapshot additionally carries the crowd
        confidence summary and records one composition-timeline sample
        per stream day (both O(users), amortised by the snapshot cadence).
        """
        n_dirty = len(self._dirty)
        with obs_metrics.histogram(
            "repro_streaming_snapshot_seconds",
            "wall time of one incremental snapshot",
        ).time():
            with trace_span("streaming_snapshot", n_dirty=n_dirty):
                self._refresh()
                snapshot = self._snapshot_from_hist()
        obs_metrics.counter(
            "repro_streaming_snapshots_total", "incremental snapshots taken"
        ).inc()
        obs_metrics.gauge(
            "repro_streaming_dirty_users",
            "users re-placed by the last incremental snapshot",
        ).set(n_dirty)
        self._snapshot_events = self._n_events
        return snapshot

    def snapshot_reference(self) -> StreamSnapshot:
        """Always-cold oracle: rebuild and re-place every user from scratch.

        This is the pre-incremental pipeline kept verbatim; the property
        tests assert ``snapshot()`` equals it after any interleaving of
        observes, snapshots, drift re-estimations and checkpoint
        round-trips.  It is an O(all users) oracle for tests and benches,
        not a production path -- lint rule DC009 flags calls from library
        code.
        """
        with obs_metrics.histogram(
            "repro_streaming_snapshot_cold_seconds",
            "wall time of one cold (full re-place) snapshot",
        ).time():
            return self._snapshot_reference_impl()

    def _snapshot_reference_impl(self) -> StreamSnapshot:
        ids: list[str] = []
        rows: list[FloatArray] = []
        for user_id, state in self._users.items():
            if state.n_posts < self.min_posts:
                continue
            ids.append(user_id)
            rows.append(state.mass())
        if ids:
            full = ProfileMatrix(ids, np.vstack(rows))
            matrix = full.select(
                ~flat_profile_mask(full, self.references, metric=self.metric)
            )
        else:
            matrix = ProfileMatrix.empty()
        if len(matrix) == 0 or len(matrix) < self.min_users_for_verdict:
            return StreamSnapshot(
                n_events_seen=self._n_events,
                n_users_seen=len(self._users),
                n_users_active=len(matrix),
                mixture=None,
                placement=None,
            )
        _, placement = place_profile_matrix(
            matrix, self.references, metric=self.metric
        )
        mixture = select_mixture(
            placement,
            max_components=self.max_components,
            sigma_init=self.sigma_init,
        )
        return StreamSnapshot(
            n_events_seen=self._n_events,
            n_users_seen=len(self._users),
            n_users_active=len(matrix),
            mixture=mixture,
            placement=placement,
        )

    # -- checkpoint / resume ----------------------------------------------

    def _config_dict(self) -> dict[str, Any]:
        return {
            "metric": self.metric,
            "min_posts": self.min_posts,
            "sigma_init": self.sigma_init,
            "max_components": self.max_components,
            "min_users_for_verdict": self.min_users_for_verdict,
        }

    def state_dict(self) -> dict[str, Any]:
        """The full resumable state as plain JSON-serialisable python.

        A rendering of :meth:`binary_state`'s columns, so the two payload
        formats cannot drift apart.  Per-user counts are not stored: they
        are a pure function of the active-cell sets and the record anchor,
        and are rebuilt on load, which keeps the checkpoint minimal and
        impossible to desynchronise.  The cached placements are likewise
        omitted -- a restored instance re-places everyone on its first
        snapshot.  Version 2 adds the versioned-record fields (record
        version, anchor, confidence value and anchor day), the drift
        configuration and the composition timeline.
        """
        meta, arrays = self.binary_state()
        cells = arrays["cells"]
        # Encoded cells sort like (day, hour) pairs, so each user's decoded
        # list is already in the documented order.
        pairs = np.column_stack((cells // HOURS, cells % HOURS)).tolist()
        bounds = arrays["cell_offsets"].tolist()
        fields = (
            "n_posts", "record_version", "anchor_day", "confidence", "confidence_day"
        )
        rows = zip(*(arrays[field].tolist() for field in fields))
        users: dict[str, Any] = {}
        # Python ids, not the ``np.str_`` column: numpy strings drop
        # trailing NUL characters.
        for i, (user_id, row) in enumerate(zip(self._users, rows)):
            user = {
                "cells": pairs[bounds[i] : bounds[i + 1]],
                **dict(zip(fields, row)),
            }
            if user["anchor_day"] == _NO_DAY:
                user["anchor_day"] = None
            users[user_id] = user
        timeline: dict[str, Any] | None = None
        if self.timeline is not None:
            timeline = {
                "days": arrays["timeline_days"].tolist(),
                "hists": arrays["timeline_hists"].tolist(),
            }
        return {
            "config": meta["config"],
            "generic_profile": arrays["generic_profile"].tolist(),
            "n_events": meta["n_events"],
            "stream_day": meta["stream_day"],
            "drift": meta["drift"],
            "timeline": timeline,
            "users": users,
        }

    @staticmethod
    def _default_confidence_day(state: _UserState) -> int:
        return state.max_day if state.max_day != _NO_DAY else 0

    def binary_state(self) -> "tuple[dict[str, Any], dict[str, AnyArray]]":
        """The resumable state as (JSON metadata, numpy columns).

        The one serialiser of both checkpoint formats (:meth:`state_dict`
        renders these columns as JSON).  The cell sets of all users are
        flattened into one encoded ``day * 24 + hour`` int64 column plus a
        per-user offset table -- the same columnar idea as the trace store
        -- so writing and reading scale with ``numpy`` throughput, not
        Python object count.  Version 2 adds one column per
        versioned-record field and two timeline columns; the anchor column
        uses a far-out-of-range sentinel for "no anchor".
        """
        user_ids = list(self._users)
        states = list(self._users.values())
        n = len(states)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter((state.n_cells() for state in states), np.int64, count=n),
            out=offsets[1:],
        )
        cells = np.empty(int(offsets[-1]), dtype=np.int64)
        for i, state in enumerate(states):
            # Sorted per user so checkpoint bytes are deterministic.
            cells[offsets[i] : offsets[i + 1]] = state.sorted_cells()
        confidences = [state.confidence for state in states]
        meta = {
            "config": self._config_dict(),
            "n_events": self._n_events,
            "stream_day": self._stream_day,
            "drift": None if self.drift is None else self.drift.as_dict(),
        }
        timeline = self.timeline if self.timeline is not None else CompositionTimeline()
        timeline_days, timeline_hists = timeline.arrays()
        arrays = {
            "user_ids": np.asarray(user_ids, dtype=np.str_),
            "n_posts": np.fromiter(
                (state.n_posts for state in states), np.int64, count=n
            ),
            "cell_offsets": offsets,
            "cells": cells,
            "generic_profile": np.asarray(
                self.references.generic.mass, dtype=np.float64
            ),
            "record_version": np.fromiter(
                (state.record_version for state in states), np.int64, count=n
            ),
            "anchor_day": np.fromiter(
                (
                    _NO_DAY if state.anchor_day is None else state.anchor_day
                    for state in states
                ),
                np.int64,
                count=n,
            ),
            "confidence": np.fromiter(
                (1.0 if c is None else c.value for c in confidences),
                np.float64,
                count=n,
            ),
            "confidence_day": np.fromiter(
                (
                    self._default_confidence_day(state) if c is None else c.as_of_day
                    for state, c in zip(states, confidences)
                ),
                np.int64,
                count=n,
            ),
            "timeline_days": timeline_days,
            "timeline_hists": timeline_hists,
        }
        return meta, arrays

    def save_checkpoint(
        self, path: "str | Path", *, format: str | None = None
    ) -> None:
        """Atomically persist the state; *format* is ``"json"``, ``"binary"``
        or ``None`` to infer from the path suffix (``.npz`` -> binary).

        JSON stays the default for non-``.npz`` paths, so checkpoints
        written by earlier releases and by unchanged callers keep their
        format; the binary payload is the fast path for big crowds.  Both
        formats are written at :data:`STREAM_CHECKPOINT_VERSION` (2): an
        old reader refuses them loudly instead of silently dropping the
        drift state.
        """
        if format is None:
            format = "binary" if str(path).endswith(".npz") else "json"
        if format == "json":
            write_checkpoint(
                path,
                STREAM_CHECKPOINT_KIND,
                STREAM_CHECKPOINT_VERSION,
                self.state_dict(),
            )
        elif format == "binary":
            meta, arrays = self.binary_state()
            write_binary_checkpoint(
                path, STREAM_CHECKPOINT_KIND, STREAM_CHECKPOINT_VERSION, meta, arrays
            )
        else:
            raise CheckpointError(
                f"unknown checkpoint format {format!r}; options: json, binary"
            )
        self._checkpoint_events = self._n_events
        self._checkpoint_wall = self._wall_now()

    @classmethod
    def _from_config(
        cls,
        config: "dict[str, Any]",
        generic_mass: "Sequence[float] | FloatArray",
        references: ReferenceProfiles | None,
        *,
        drift: DriftConfig | None = None,
    ) -> "StreamingGeolocator":
        if references is None:
            references = ReferenceProfiles(
                Profile(np.asarray(generic_mass, dtype=float))
            )
        return cls(
            references,
            metric=str(config["metric"]),
            min_posts=int(config["min_posts"]),
            sigma_init=float(config["sigma_init"]),
            max_components=int(config["max_components"]),
            min_users_for_verdict=int(config["min_users_for_verdict"]),
            drift=drift,
        )

    @classmethod
    def _negotiate_drift(
        cls,
        stored: "dict[str, Any] | None",
        override: DriftConfig | None,
        version: int,
    ) -> DriftConfig | None:
        """The drift config a restored instance should run with.

        An explicit *override* wins; otherwise the checkpointed config is
        restored (version 2), and version-1 checkpoints -- written before
        the drift layer existed -- come back with drift disabled.
        """
        if override is not None:
            return override
        if version >= 2 and stored is not None:
            return DriftConfig.from_dict(stored)
        return None

    @classmethod
    def from_state_dict(
        cls,
        state: dict[str, Any],
        *,
        references: ReferenceProfiles | None = None,
        version: int = STREAM_CHECKPOINT_VERSION,
        drift: DriftConfig | None = None,
    ) -> "StreamingGeolocator":
        """Inverse of :meth:`state_dict`.

        The document is parsed into :meth:`binary_state`'s columns and
        restored by :meth:`from_binary_state`, so both formats share one
        restore.  The reference profiles are rebuilt from the checkpointed
        generic profile unless an explicit *references* object is
        supplied.  *version* selects the schema (1 = pre-drift: users
        restore with full-confidence defaults); *drift* overrides the
        checkpointed drift configuration -- pass one to enable the drift
        layer on a version-1 checkpoint.
        """
        try:
            meta, arrays = cls._document_columns(state, version)
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed streaming-geolocator state: {exc!r}"
            ) from exc
        return cls.from_binary_state(
            meta, arrays, references=references, version=version, drift=drift
        )

    @staticmethod
    def _document_columns(
        state: dict[str, Any], version: int
    ) -> "tuple[dict[str, Any], dict[str, AnyArray]]":
        """Parse a :meth:`state_dict` document into checkpoint columns.

        Each user's cells are sorted and de-duplicated, and version-2
        fields a user lacks take the defaults a fresh record has (the
        ``confidence_day`` sentinel makes the restore fall back to the
        record's newest day, as for the binary format).
        """
        users = state["users"]
        records = list(users.values())
        user_ids = list(users)
        n = len(records)
        cell_lists = [record["cells"] for record in records]
        lengths = np.fromiter(
            (len(cells) for cells in cell_lists), np.int64, count=n
        )
        flat = [pair for cells in cell_lists for pair in cells]
        pairs = (
            np.asarray(flat, dtype=np.int64)
            if flat
            else np.zeros((0, 2), dtype=np.int64)
        )
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("user cells must be [day, hour] pairs")
        owner = np.repeat(np.arange(n, dtype=np.int64), lengths)
        hours = pairs[:, 1]
        outside = (hours < 0) | (hours >= HOURS)
        if bool(outside.any()):
            bad = int(np.argmax(outside))
            raise CheckpointError(
                f"user {user_ids[int(owner[bad])]!r} has the cell "
                f"{pairs[bad].tolist()}, whose hour is outside 0..23"
            )
        cells = pairs[:, 0] * HOURS + hours
        order = np.lexsort((cells, owner))
        cells = cells[order]
        owner = owner[order]
        first = np.ones(cells.size, dtype=bool)
        first[1:] = (cells[1:] != cells[:-1]) | (owner[1:] != owner[:-1])
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner[first], minlength=n), out=offsets[1:])

        def column(
            key: str, default: Any, cast: Callable[[Any], Any], dtype: Any = np.int64
        ) -> AnyArray:
            values = (record.get(key, default) for record in records)
            return np.fromiter(map(cast, values), dtype, count=n)

        meta: dict[str, Any] = {
            "config": state["config"],
            "n_events": state["n_events"],
        }
        arrays: dict[str, AnyArray] = {
            "user_ids": np.asarray(user_ids, dtype=object),
            "n_posts": column("n_posts", None, int),
            "cell_offsets": offsets,
            "cells": cells[first],
            "generic_profile": np.asarray(
                state["generic_profile"], dtype=np.float64
            ),
        }
        if version < 2:
            return meta, arrays
        meta["stream_day"] = state.get("stream_day")
        meta["drift"] = state.get("drift")
        arrays["record_version"] = column("record_version", 1, int)
        arrays["anchor_day"] = column(
            "anchor_day", None, lambda day: _NO_DAY if day is None else int(day)
        )
        arrays["confidence"] = column("confidence", 1.0, float, np.float64)
        arrays["confidence_day"] = column("confidence_day", _NO_DAY, int)
        timeline = state.get("timeline") or {"days": [], "hists": []}
        hists = np.asarray(timeline["hists"], dtype=np.int64)
        arrays["timeline_days"] = np.asarray(timeline["days"], dtype=np.int64)
        # An empty JSON list has no bin axis.
        arrays["timeline_hists"] = (
            hists if hists.size else hists.reshape(0, len(ZONE_OFFSETS))
        )
        return meta, arrays

    def _seed_stream_day(self) -> None:
        """Derive the stream day from restored records when absent.

        Version-1 checkpoints never stored it; confidence decay needs a
        "now" to measure from, so the newest observed day stands in.
        """
        if self.drift is None or self._stream_day is not None:
            return
        days = [
            state.max_day
            for state in self._users.values()
            if state.max_day != _NO_DAY
        ]
        self._stream_day = max(days) if days else None

    @classmethod
    def from_binary_state(
        cls,
        meta: dict[str, Any],
        arrays: "dict[str, AnyArray]",
        *,
        references: ReferenceProfiles | None = None,
        version: int = STREAM_CHECKPOINT_VERSION,
        drift: DriftConfig | None = None,
    ) -> "StreamingGeolocator":
        """Inverse of :meth:`binary_state`, and the one restore of both
        checkpoint formats (:meth:`from_state_dict` parses JSON into these
        columns).  Per-user counts are rebuilt with one vectorised
        bincount over the whole cell column (masked by each user's record
        anchor)."""
        try:
            drift_config = cls._negotiate_drift(
                meta.get("drift") if version >= 2 else None, drift, version
            )
            geolocator = cls._from_config(
                meta["config"],
                arrays["generic_profile"],
                references,
                drift=drift_config,
            )
            geolocator._n_events = int(meta["n_events"])
            user_ids: list[str] = arrays["user_ids"].tolist()
            n_posts = np.asarray(arrays["n_posts"], dtype=np.int64)
            offsets = np.asarray(arrays["cell_offsets"], dtype=np.int64)
            cells = np.asarray(arrays["cells"], dtype=np.int64)
            n_users = len(user_ids)
            if offsets.size != n_users + 1 or n_posts.size != n_users:
                raise CheckpointError(
                    "checkpoint columns disagree on the user count"
                )
            if int(offsets[-1]) != cells.size or int(offsets[0]) != 0:
                raise CheckpointError(
                    "checkpoint offset table does not cover the cells"
                )
            if version >= 2:
                stream_day = meta.get("stream_day")
                geolocator._stream_day = (
                    None if stream_day is None else int(stream_day)
                )
                anchor_col = np.asarray(arrays["anchor_day"], dtype=np.int64)
                version_col = np.asarray(arrays["record_version"], dtype=np.int64)
                confidence_col = np.asarray(arrays["confidence"], dtype=np.float64)
                confidence_day_col = np.asarray(
                    arrays["confidence_day"], dtype=np.int64
                )
                for name, column in (
                    ("anchor_day", anchor_col),
                    ("record_version", version_col),
                    ("confidence", confidence_col),
                    ("confidence_day", confidence_day_col),
                ):
                    if column.size != n_users:
                        raise CheckpointError(
                            f"checkpoint column {name!r} disagrees "
                            "on the user count"
                        )
                if geolocator.timeline is not None:
                    geolocator.timeline = CompositionTimeline.from_arrays(
                        np.asarray(arrays["timeline_days"], dtype=np.int64),
                        np.asarray(arrays["timeline_hists"], dtype=np.int64),
                    )
            else:
                anchor_col = np.full(n_users, _NO_DAY, dtype=np.int64)
                version_col = np.ones(n_users, dtype=np.int64)
                confidence_col = np.ones(n_users, dtype=np.float64)
                confidence_day_col = np.full(n_users, _NO_DAY, dtype=np.int64)
            if cells.size:
                # Each user's segment must be strictly increasing (the
                # writer sorts and de-duplicates); one vectorised pass
                # checks every segment at once.
                deltas = np.diff(cells)
                starts = offsets[1:-1]
                crossings = np.zeros(max(cells.size - 1, 0), dtype=bool)
                inner = starts[(starts >= 1) & (starts <= cells.size - 1)]
                crossings[inner - 1] = True
                if not np.all((deltas > 0) | crossings):
                    raise CheckpointError(
                        "checkpoint columns hold unsorted or duplicate cells"
                    )
            counts = np.zeros((n_users, HOURS), dtype=float)
            max_days = np.full(n_users, _NO_DAY, dtype=np.int64)
            if cells.size:
                owners = np.repeat(
                    np.arange(n_users, dtype=np.int64), np.diff(offsets)
                )
                days = cells // HOURS
                hours = np.mod(cells, HOURS)
                # Cells before a truncated record's anchor stay out of the
                # counts (they exist only for deduplication).
                in_record = days >= anchor_col[owners]
                keyed = (owners * HOURS + hours)[in_record]
                counts = (
                    np.bincount(keyed, minlength=n_users * HOURS)
                    .reshape(n_users, HOURS)
                    .astype(float)
                )
                nonempty = np.flatnonzero(np.diff(offsets) > 0)
                max_days[nonempty] = days[offsets[nonempty + 1] - 1]
            for i in range(n_users):
                restored = _UserState()
                restored.n_posts = int(n_posts[i])
                restored._cells = None
                restored._frozen = cells[offsets[i] : offsets[i + 1]]
                restored.counts = counts[i]
                restored.max_day = int(max_days[i])
                anchor = int(anchor_col[i])
                restored.anchor_day = None if anchor == _NO_DAY else anchor
                restored.record_version = int(version_col[i])
                if drift_config is not None:
                    day_anchor = int(confidence_day_col[i])
                    if day_anchor == _NO_DAY:
                        day_anchor = cls._default_confidence_day(restored)
                    restored.confidence = UserConfidence(
                        float(confidence_col[i]), day_anchor
                    )
                geolocator._users[user_ids[i]] = restored
        except CheckpointError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed streaming-geolocator state: {exc!r}"
            ) from exc
        geolocator._dirty.update(geolocator._users)
        geolocator._seed_stream_day()
        return geolocator

    @classmethod
    def load_checkpoint(
        cls,
        path: "str | Path",
        *,
        references: ReferenceProfiles | None = None,
        drift: DriftConfig | None = None,
    ) -> "StreamingGeolocator":
        """Rebuild a geolocator from :meth:`save_checkpoint` output.

        Both the payload format (JSON of earlier releases, or binary
        ``.npz``) and the schema version are negotiated from the file
        itself: version-1 checkpoints load with full-confidence defaults
        and drift disabled (pass *drift* to enable it), version-2
        checkpoints restore their drift configuration and composition
        timeline, and anything newer fails loudly.
        """
        if checkpoint_format(path) == "binary":
            version, meta, arrays = read_binary_checkpoint_negotiated(
                path, STREAM_CHECKPOINT_KIND, STREAM_CHECKPOINT_COMPAT
            )
            return cls.from_binary_state(
                meta, arrays, references=references, version=version, drift=drift
            )
        version, state = read_checkpoint_negotiated(
            path, STREAM_CHECKPOINT_KIND, STREAM_CHECKPOINT_COMPAT
        )
        return cls.from_state_dict(
            state, references=references, version=version, drift=drift
        )
