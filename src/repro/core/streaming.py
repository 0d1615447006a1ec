"""Streaming crowd geolocation: verdicts that update as posts arrive.

Sec. VII of the paper: when a forum hides timestamps, "one might need to
monitor a sufficiently large number of days, depending on the frequency
of the posts, in order to collect 30 posts per user or more necessary to
build meaningful profiles".  :class:`StreamingGeolocator` makes that
operational: feed it (author, timestamp) events as they are observed and
ask for the current verdict at any point -- the convergence experiment
(:func:`repro.analysis.streaming_experiments.run_convergence_experiment`)
then answers *how many days of monitoring a given forum needs*.

All incremental state lives in one **user table**: a row per user in
first-observation order and a column per field of their versioned Eq. 1
record -- post count, active (day, hour) cells, a ``(rows, 24)`` count
matrix, record version and anchor, the cached zone, and, when the
temporal-drift layer is on, a confidence score in [0, 1] with passive
time decay (:mod:`repro.core.drift`).  An update is O(1), and so is most
of a snapshot: a *dirty set* of rows records exactly which users changed
(a post landing in a new Eq. 1 cell, or a user crossing the activity
threshold) since the last snapshot.  ``snapshot()`` re-places only the
dirty rows -- one gather, one classifier pass -- and patches the 24-bin
placement histogram by bincounts of their old and new zones, so its cost
is O(dirty + bins); the always-cold pipeline is kept as
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
cells, appends new users as one block of rows and merges the rest --
array-backed rows in one vectorised pass, set-backed ones per user.  With
drift on, a user whose
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
writes the table's columns as they are (all users' cells in one encoded
column), the ``.npz`` payload stores them, and the JSON document of
earlier releases (still written for any other path, still loadable) is
:meth:`StreamingGeolocator.state_dict`'s rendering of them.  Loading
parses either payload back into the same columns, which become the
table's (:meth:`StreamingGeolocator.from_binary_state`), so a
million-user checkpoint round-trips in seconds.  ``load_checkpoint``
negotiates both the payload format and the schema version from the file
itself: version-1 checkpoints written before the drift layer existed
load with full-confidence defaults, while a version-2 checkpoint handed
to a version-1 reader fails loudly with a :class:`CheckpointError`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence, Sized
from dataclasses import dataclass
from itertools import compress, repeat
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.batch import ProfileMatrix
from repro.core.drift import (
    ChangePointDetector,
    CompositionTimeline,
    ConfidenceSummary,
    DriftConfig,
    ZoneMigrationEvent,
    decayed_confidence,
)
from repro.core.em import GaussianMixtureModel, select_mixture
from repro.core.events import PostEvent, id_column
from repro.core.flatness import flat_profile_mask
from repro.core.gaussian import PAPER_SIGMA
from repro.core.kernels import segment_unique_cells, valid_stamps
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
from repro.reliability.clocks import wall_now

if TYPE_CHECKING:
    from repro.core.types import AnyArray, BoolArray, FloatArray, IntArray
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

#: A freshly truncated record keeps getting its zone re-checked (and
#: corrected via ``reason="refine"`` events) until it holds this many
#: times ``min_reestimate_cells`` -- at which point one more cell cannot
#: move the placement and the estimate is considered settled.
_REFINE_SETTLED_FACTOR = 4.0

#: :meth:`_UserTable.merge_frozen` merges row by row when ``row * span +
#: cell`` keys could reach this (2**21 rows spanning the stamp rule's range).
_KEY_LIMIT = 2**62

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


#: Zone-column sentinel: the row is unplaced (dirty, under-evidenced) or flat.
_UNPLACED = -1


def _refusal(user_id: str, stamp: float, what: str) -> str:
    """The message of a stamp the intake rule refuses; *what* was dropped."""
    kind = "a non-finite" if not np.isfinite(stamp) else "an out-of-range"
    return (
        f"user {user_id!r} has {kind} timestamp ({float(stamp)}); "
        f"nothing of {what} was ingested"
    )


def _pick(column: "list[Any]", rows: "IntArray") -> "list[Any]":
    """``column[rows]`` of a list column, gathered in C (no Python loop)."""
    if rows.size == 0:
        return []
    picked = itemgetter(*rows.tolist())(column)
    return list(picked) if rows.size > 1 else [picked]


def _segments(starts: "IntArray", lengths: "IntArray") -> "IntArray":
    """Indices of the segments ``[starts[i], starts[i] + lengths[i])``, in turn."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total, dtype=np.int64) + np.repeat(starts - (ends - lengths), lengths)


#: Bit positions of the 24 hours in a day mask.
_HOUR_BITS = np.arange(HOURS, dtype=np.int64)


def _scan_splits(
    detector: ChangePointDetector, bits: dict[int, int], total: "FloatArray"
) -> "tuple[int, float]":
    """(first day of the best suffix, its split score) over a record.

    *bits* maps each of the record's active days to its hour mask and
    *total* holds the record's hour counts.  Every split after an active
    day but the last is a candidate: its prefix counts are a cumulative
    row of the days' hour indicators (summed in int64, so no count wraps
    however long the record) and its suffix is ``total - prefix``.  The
    splits whose sides both reach the floor are scored in one
    :meth:`ChangePointDetector.split_scores` call, and the first best
    split wins.  The score is ``-1.0``, at the first active day, when no
    split leaves both sides enough cells.
    """
    days = sorted(bits)
    masks = np.array([bits[day] for day in days[:-1]], dtype=np.int64)
    prefix = np.cumsum((masks[:, None] >> _HOUR_BITS) & 1, axis=0)
    # Tiny split sides have huge EMD sampling noise, and the argmax over a
    # record's worth of candidate splits would happily pick a six-cell
    # tail and call it a migration -- the size discount in
    # :meth:`ChangePointDetector.split_scores` flattens that noise floor,
    # so the hard floor here only prunes hopeless splits (the commit
    # floor on the post-change suffix is separate, in
    # :meth:`StreamingGeolocator._reestimate`).
    min_side = float(max(8, detector.config.min_reestimate_cells // 2))
    prefix_cells = prefix.sum(axis=1)
    candidates = np.flatnonzero(
        (prefix_cells >= min_side) & (float(total.sum()) - prefix_cells >= min_side)
    )
    if candidates.size == 0:
        return days[0], -1.0
    prefix_counts = prefix[candidates].astype(float)
    scores = detector.split_scores(prefix_counts, total - prefix_counts)
    best = int(np.argmax(scores))
    return days[int(candidates[best])] + 1, float(scores[best])


class _UserTable:
    """Every user's versioned incremental Eq. 1 record, one column per field.

    Row ``i`` is the ``i``-th user observed (``index`` maps id to row), so
    whole-crowd passes lay users out in first-observation order.  Fields
    the per-event path touches on every post (post count, newest day,
    last check day, anchor) are Python lists, whose item updates cost
    what an attribute update does; whole-crowd passes convert them once.
    The Eq. 1 counts are one ``(rows, 24)`` float64 matrix; the record
    version, cached zone (:data:`_UNPLACED` when unplaced or flat) and
    cell slice bounds are int64 columns, grown by doubling.

    Cells are encoded ``day * 24 + hour``.  A row built by bulk intake or
    restore holds a sorted slice ``arena[start:stop]`` of one shared cell
    arena, so a chunk is diffed against all its users' records in one
    vectorised pass; a row becomes a python set (``start == -1``) once
    :meth:`StreamingGeolocator.observe` touches it.  The arena is
    compacted once re-merged slices leave more dead cells than live ones.

    :meth:`truncate` opens a new record version when the drift layer
    re-estimates a user: the counts then cover only days ``>= anchor``
    while the cells keep the whole history for deduplication.  The
    confidence columns (``conf_day == _NO_DAY``: no record yet) and the
    lazily built per-day hour bitmaps serve the drift layer only.
    """

    __slots__ = (
        "index", "ids", "posts", "max_day", "last_check", "anchor", "conf_value",
        "conf_day", "sets", "bits", "counts", "flat_counts", "version", "zone",
        "start", "stop", "arena", "arena_size", "garbage",
    )

    def __init__(self) -> None:
        self.index: dict[str, int] = {}
        self.ids: list[str] = []
        self.posts: list[int] = []
        self.max_day: list[int] = []
        self.last_check: list[int] = []
        self.anchor: list[int] = []
        self.conf_value: list[float] = []
        self.conf_day: list[int] = []
        self.sets: list[set[int] | None] = []
        self.bits: list[dict[int, int] | None] = []
        self.counts: FloatArray = np.zeros((0, HOURS), dtype=np.float64)
        # A flat view of the counts: the per-event update indexes it with
        # one integer, cheaper than a (row, hour) pair.
        self.flat_counts: FloatArray = self.counts.reshape(-1)
        self.version: IntArray = np.zeros(0, dtype=np.int64)
        self.zone: IntArray = np.zeros(0, dtype=np.int64)
        self.start: IntArray = np.zeros(0, dtype=np.int64)
        self.stop: IntArray = np.zeros(0, dtype=np.int64)
        self.arena: IntArray = np.zeros(0, dtype=np.int64)
        self.arena_size = 0
        self.garbage = 0

    def __len__(self) -> int:
        return len(self.ids)

    def _reserve(self, extra: int) -> int:
        """Make room for *extra* more rows; returns the first of them."""
        first = len(self.ids)
        capacity = self.zone.size
        if first + extra > capacity:
            capacity = max(first + extra, 2 * capacity, 64)
            fills = {"counts": 0.0, "version": 1, "zone": _UNPLACED, "start": 0, "stop": 0}
            for name, fill in fills.items():
                old = getattr(self, name)
                grown = np.full((capacity,) + old.shape[1:], fill, dtype=old.dtype)
                grown[:first] = old[:first]
                setattr(self, name, grown)
            self.flat_counts = self.counts.reshape(-1)
        return first

    def add(self, user_id: str) -> int:
        """A new set-backed row for *user_id* (the per-event path)."""
        row = self._reserve(1)
        self.index[user_id] = row
        self.ids.append(user_id)
        self.posts.append(0)
        for column in (self.max_day, self.last_check, self.anchor, self.conf_day):
            column.append(_NO_DAY)
        self.conf_value.append(1.0)
        self.sets.append(set())
        self.bits.append(None)
        self.start[row] = -1
        return row

    def append(
        self,
        user_ids: "list[str]",
        posts: "IntArray",
        cells: "IntArray",
        cell_lengths: "IntArray",
        anchors: "IntArray | None" = None,
    ) -> "IntArray":
        """New array-backed rows holding *cells*; returns their row numbers.

        *cells* holds each user's sorted unique cells back to back.  The
        counts take the cells at or after each row's anchor (all of them
        when *anchors* is None); the newest day is the last cell's.
        """
        k = len(user_ids)
        first = self._reserve(k)
        rows = np.arange(first, first + k, dtype=np.int64)
        self.index.update(zip(user_ids, rows.tolist()))
        self.ids += user_ids
        self.posts += posts.tolist()
        ends = np.cumsum(cell_lengths)
        days = cells // HOURS
        newest = np.full(k, _NO_DAY, dtype=np.int64)
        filled = cell_lengths > 0
        newest[filled] = days[ends[filled] - 1]
        self.max_day += newest.tolist()
        self.last_check += [_NO_DAY] * k
        self.anchor += [_NO_DAY] * k if anchors is None else anchors.tolist()
        self.conf_value += [1.0] * k
        self.conf_day += [_NO_DAY] * k
        self.sets += [None] * k
        self.bits += [None] * k
        # row * 24 + hour, spared numpy's slow integer modulo.
        keys = (np.repeat(rows - first, cell_lengths) - days) * HOURS + cells
        if anchors is not None:
            keys = keys[days >= np.repeat(anchors, cell_lengths)]
        self.counts[first : first + k] = np.bincount(
            keys, minlength=k * HOURS
        ).reshape(k, HOURS)
        self.store(rows, cells, cell_lengths)
        return rows

    # -- cell records --------------------------------------------------------

    def thaw(self, row: int) -> set[int]:
        """Turn *row*'s sorted slice into the set the per-event path updates."""
        start, stop = int(self.start[row]), int(self.stop[row])
        cells = set(self.arena[start:stop].tolist())
        self.sets[row] = cells
        self.start[row] = -1
        self.garbage += stop - start
        return cells

    def gather(self, rows: "IntArray") -> "tuple[IntArray, IntArray]":
        """The slices of array-backed *rows* back to back, and their lengths."""
        starts = self.start[rows]
        lengths = self.stop[rows] - starts
        return self.arena[_segments(starts, lengths)], lengths

    def store(self, rows: "IntArray", cells: "IntArray", lengths: "IntArray") -> None:
        """Point array-backed *rows* at *cells*, their new records in turn."""
        self.garbage += int((self.stop[rows] - self.start[rows]).sum())
        begin = self.arena_size
        end = begin + cells.size
        if end > self.arena.size:
            grown = np.empty(max(end, 2 * self.arena.size), dtype=np.int64)
            grown[:begin] = self.arena[:begin]
            self.arena = grown
        self.arena[begin:end] = cells
        self.arena_size = end
        self.stop[rows] = begin + np.cumsum(lengths)
        self.start[rows] = self.stop[rows] - lengths
        if 2 * self.garbage > self.arena_size:
            live = np.flatnonzero(self.start[: len(self.ids)] >= 0)
            cells, lengths = self.gather(live)
            self.arena, self.arena_size, self.garbage = cells, cells.size, 0
            self.stop[live] = np.cumsum(lengths)
            self.start[live] = self.stop[live] - lengths

    def cell_column(self) -> "tuple[IntArray, IntArray]":
        """``(offsets, cells)``: every row's sorted cells, in row order."""
        n = len(self.ids)
        starts = self.start[:n]
        frozen = starts >= 0
        lengths = np.where(frozen, self.stop[:n] - starts, 0)
        loose = np.flatnonzero(~frozen).tolist()
        lengths[loose] = [len(self.sets[row] or ()) for row in loose]
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        if not loose and np.array_equal(starts, offsets[:-1]):
            # The arena holds every record in row order, as after a bulk
            # replay or a restore.
            return offsets, self.arena[: offsets[-1]].copy()
        cells = np.empty(int(offsets[-1]), dtype=np.int64)
        rows = np.flatnonzero(frozen)
        cells[_segments(offsets[rows], lengths[rows])] = self.gather(rows)[0]
        for row in loose:
            cells[offsets[row] : offsets[row + 1]] = sorted(self.sets[row] or ())
        return offsets, cells

    def merge_set(self, row: int, seg: "IntArray") -> bool:
        """Merge one chunk's sorted unique cells into *row* as a set.

        Returns True when at least one *in-record* cell opened -- exactly
        the chunks for which the per-event loop would have dirtied the
        user.  Post counts are left to the caller.
        """
        cells = self.sets[row]
        if cells is None:
            cells = self.thaw(row)
        counts = self.counts[row]
        bits = self.bits[row]
        anchor = self.anchor[row]
        max_day = self.max_day[row]
        opened = False
        for cell in seg.tolist():
            if cell in cells:
                continue
            cells.add(cell)
            day = cell // HOURS
            if day > max_day:
                max_day = day
            if day < anchor:
                # Pre-anchor straggler: deduplicated, never re-counted.
                continue
            counts[cell % HOURS] += 1.0
            if bits is not None:
                bits[day] = bits.get(day, 0) | (1 << (cell % HOURS))
            opened = True
        self.max_day[row] = max_day
        return opened

    def merge_frozen(
        self, rows: "IntArray", cand: "IntArray", cand_lengths: "IntArray"
    ) -> "BoolArray":
        """Diff + merge one chunk into many array-backed rows in one pass.

        Records and candidates are encoded as ``row * span + cell`` keys
        (both sorted row-major, so membership is one searchsorted), new
        cells are spliced into one merged key column, and each row points
        at its slice of the result: per row, what :meth:`merge_set` gives,
        which is the fallback when the keys would overflow int64.  Returns
        which rows opened an in-record cell.
        """
        n_rows = rows.size
        records, record_lengths = self.gather(rows)
        owner = np.repeat(np.arange(n_rows, dtype=np.int64), cand_lengths)
        new_cells, new_owner = cand, owner
        merged, merged_lengths = cand, cand_lengths
        if records.size:
            cell_min = min(int(cand.min()), int(records.min()))
            span = max(int(cand.max()), int(records.max())) - cell_min + 1
            if n_rows * span >= _KEY_LIMIT:  # the keys could overflow int64
                ends = np.cumsum(cand_lengths)
                bounds = zip(rows.tolist(), (ends - cand_lengths).tolist(), ends.tolist())
                flags = [self.merge_set(r, cand[a:b]) for r, a, b in bounds]
                return np.asarray(flags, dtype=bool)
            record_keys = (
                np.repeat(np.arange(n_rows, dtype=np.int64), record_lengths) * span
                + (records - cell_min)
            )
            cand_keys = owner * span + (cand - cell_min)
            at = np.minimum(np.searchsorted(record_keys, cand_keys), record_keys.size - 1)
            new_mask = record_keys[at] != cand_keys
            new_keys = cand_keys[new_mask]
            new_cells, new_owner = cand[new_mask], owner[new_mask]
            merged_keys = np.insert(record_keys, np.searchsorted(record_keys, new_keys), new_keys)
            merged = merged_keys % span + cell_min
            merged_lengths = record_lengths + np.bincount(new_owner, minlength=n_rows)
        # In-record (counted) new cells: at or after the record anchor.
        anchors = np.asarray(_pick(self.anchor, rows), dtype=np.int64)
        counted = (new_cells // HOURS) >= anchors[new_owner]
        counted_owner = new_owner[counted]
        deltas = np.bincount(
            counted_owner * HOURS + new_cells[counted] % HOURS,
            minlength=n_rows * HOURS,
        ).reshape(n_rows, HOURS)
        opened = np.bincount(counted_owner, minlength=n_rows) > 0
        self.counts[rows[opened]] += deltas[opened].astype(float)
        self.store(rows, merged, merged_lengths)
        # The newest day is the record's last cell's: duplicates and
        # stragglers can never raise it past their first occurrence.
        newest = merged[np.cumsum(merged_lengths) - 1] // HOURS
        for row, day in zip(rows.tolist(), newest.tolist()):
            self.max_day[row] = day
        return opened

    def masses(self, rows: "IntArray") -> "FloatArray":
        """Eq. 1 profile rows (counts over their sums) of *rows*."""
        counts = self.counts[rows]
        totals = counts.sum(axis=1, keepdims=True)
        if bool((totals <= 0.0).any()):
            raise EmptyTraceError("no activity accumulated")
        return counts / totals

    # -- drift-lifecycle helpers ---------------------------------------------

    def reset_confidence(self, row: int, day: int) -> None:
        """Anchor *row*'s confidence at full on *day* (fresh evidence)."""
        self.conf_value[row] = 1.0
        self.conf_day[row] = int(day)

    def day_bits(self, row: int) -> dict[int, int]:
        """``day -> 24-bit hour mask`` of *row*'s current record (lazy).

        Built once from the row's cells (turning it set-backed) and
        maintained by the per-event path afterwards, so window queries
        cost O(window days), not O(record cells).
        """
        bits = self.bits[row]
        if bits is None:
            cells = self.sets[row]
            if cells is None:
                cells = self.thaw(row)
            anchor = self.anchor[row]
            bits = {}
            for encoded in cells:
                day, hour = divmod(encoded, HOURS)
                if day >= anchor:
                    bits[day] = bits.get(day, 0) | (1 << hour)
            self.bits[row] = bits
        return bits

    @staticmethod
    def counts_of_bits(bits_by_day: Iterable[int]) -> FloatArray:
        """Hour counts of the day masks *bits_by_day*."""
        counts = [0] * HOURS
        for bits in bits_by_day:
            while bits:
                low = bits & -bits
                counts[low.bit_length() - 1] += 1
                bits &= bits - 1
        return np.array(counts, dtype=float)

    def window_bits(self, row: int, start_day: int, end_day: int) -> list[int]:
        """Day masks of *row*'s record days in [start_day, end_day]."""
        bits_by_day = self.day_bits(row)
        if len(bits_by_day) <= end_day - start_day + 1:
            return [
                bits for day, bits in bits_by_day.items()
                if start_day <= day <= end_day
            ]
        return [bits_by_day.get(day, 0) for day in range(start_day, end_day + 1)]

    def truncate(self, row: int, anchor_day: int) -> None:
        """Open a new record version holding only days >= *anchor_day*."""
        kept = {
            day: bits for day, bits in self.day_bits(row).items() if day >= anchor_day
        }
        self.bits[row] = kept
        self.counts[row] = self.counts_of_bits(kept.values())
        self.anchor[row] = anchor_day
        self.version[row] += 1


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
    :func:`repro.reliability.clocks.wall_now` (which tests freeze), never
    ``time.time()`` directly.
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
    ) -> None:
        self.references = references or ReferenceProfiles.canonical()
        self.metric = metric
        self.min_posts = min_posts
        self.sigma_init = sigma_init
        self.max_components = max_components
        self.min_users_for_verdict = min_users_for_verdict
        self._table = _UserTable()
        self._n_events = 0
        # Incremental placement state (see class docstring invariant): the
        # rows to re-place, besides the table's zone column.
        self._dirty: set[int] = set()
        self._hist = np.zeros(len(ZONE_OFFSETS), dtype=np.int64)
        self._matrix_cache: ProfileMatrix | None = None
        # -- temporal-drift layer (inert when drift is None) --------------
        self.drift = drift
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
        """Feed one (author, UTC timestamp) observation; a stamp the intake
        rule refuses raises :class:`~repro.errors.CorruptTraceError` first."""
        if not valid_stamps(timestamp):
            raise CorruptTraceError(_refusal(user_id, timestamp, "the event"))
        table = self._table
        row = table.index.get(user_id)
        if row is None:
            row = table.add(user_id)
        posts = table.posts[row] + 1
        table.posts[row] = posts
        # No float() coercion: this binning is bit-identical for python
        # floats, ints and numpy float64 scalars.
        day = int(timestamp // 86400.0)
        hour = int((timestamp % 86400.0) // 3600.0)
        if hour == HOURS:
            # Clipped as split_day_hours clips: a tiny negative stamp's
            # remainder rounds up to a whole day.
            hour = HOURS - 1
        if day > table.max_day[row]:
            table.max_day[row] = day
        cell = day * HOURS + hour
        cells = table.sets[row]
        if cells is None:
            cells = table.thaw(row)
        opened = False
        # A straggler from before a truncated record's anchor is kept for
        # deduplication, but the record never re-absorbs pre-migration
        # history.
        if cell not in cells:
            cells.add(cell)
            if day >= table.anchor[row]:
                table.flat_counts[row * HOURS + hour] += 1.0
                bits = table.bits[row]
                if bits is not None:
                    bits[day] = bits.get(day, 0) | (1 << hour)
                opened = True
        if opened or posts == self.min_posts:
            self._dirty.add(row)
        self._n_events += 1
        if opened and self.drift is not None:
            self._drift_on_new_cell(user_id, row)

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
        number of events ingested.  A timestamp the intake rule refuses
        raises :class:`~repro.errors.CorruptTraceError` before any event
        of the chunk is ingested.
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
        # order -- row creation order must match the per-event loop (the
        # checkpoint columns follow the table's row order).
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
        events ingested.  A chunk holding a timestamp the intake rule
        refuses raises :class:`~repro.errors.CorruptTraceError` before
        any of its events is ingested (earlier chunks stay ingested).

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
        depends on how users interleave.  Every other user is merged: new
        users are appended to the table as one block, array-backed rows
        merge in one :meth:`_UserTable.merge_frozen` pass and set-backed
        ones through :meth:`_UserTable.merge_set`.  Bit-identity with the
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
        valid = valid_stamps(stamps)
        if not bool(valid.all()):
            bad = int(np.argmin(valid))
            culprit = int(np.searchsorted(np.cumsum(lengths), bad, side="right"))
            raise CorruptTraceError(
                _refusal(user_ids[culprit], stamps[bad], "this chunk")
            )
        if bool((lengths == 0).any()):
            # A zero-length user never reaches observe() in the per-event
            # loop, so it must not acquire state here either.
            keep = lengths > 0
            user_ids = [u for u, k in zip(user_ids, keep) if k]
            lengths = lengths[keep]
            n_users = len(user_ids)
        table = self._table
        found = np.fromiter(
            map(table.index.get, user_ids, repeat(-1)), dtype=np.int64, count=n_users
        )
        fresh = found < 0
        cells, cell_lengths = segment_unique_cells(stamps, lengths)
        ends = np.cumsum(cell_lengths)
        starts = ends - cell_lengths
        config = self.drift
        # With drift on, new users have no confidence record yet: they are
        # replayed below, and observe() adds their rows in chunk order.
        replay = fresh.copy() if config is not None else np.zeros(n_users, dtype=bool)
        if config is None and fresh.any():
            everyone = bool(fresh.all())
            added = table.append(
                list(user_ids) if everyone else list(compress(user_ids, fresh.tolist())),
                lengths[fresh],
                cells if everyone else cells[np.repeat(fresh, cell_lengths)],
                cell_lengths[fresh],
            )
            self._dirty.update(added.tolist())  # every new user opened a cell
        old = np.flatnonzero(~fresh)
        if config is not None and old.size:
            rows = found[old]
            # Cells are sorted per user, so each segment's last cell holds
            # the newest day this chunk can reach.
            due = (np.asarray(_pick(table.conf_day, rows)) == _NO_DAY) | config.check_due(
                np.maximum(np.asarray(_pick(table.max_day, rows)), cells[ends[old] - 1] // HOURS),
                np.asarray(_pick(table.last_check, rows)),
            )
            replay[old[due]] = True
            old = old[~due]
        if old.size:
            rows = found[old]
            before = np.asarray(_pick(table.posts, rows), dtype=np.int64)
            after = before + lengths[old]
            for row, count in zip(rows.tolist(), after.tolist()):
                table.posts[row] = count
            # A chunk crossing the activity threshold held exactly one event
            # with n_posts == min_posts in the per-event loop, which dirties
            # the user even with no new cell.
            crossed = (before < self.min_posts) & (after >= self.min_posts)
            self._dirty.update(rows[crossed].tolist())
            frozen = table.start[rows] >= 0
            opened = [
                row
                for user, row in zip(old[~frozen].tolist(), rows[~frozen].tolist())
                if table.merge_set(row, cells[starts[user] : ends[user]])
            ]
            if frozen.any():
                hit = np.zeros(n_users, dtype=bool)
                hit[old[frozen]] = True
                grew = table.merge_frozen(
                    rows[frozen], cells[np.repeat(hit, cell_lengths)], cell_lengths[hit]
                )
                opened += rows[frozen][grew].tolist()
            self._dirty.update(opened)
            if config is not None and opened:
                # Each opened cell moves the stream clock in the per-event
                # loop; the newest of them is the user's final newest day.
                newest = max(_pick(table.max_day, np.asarray(opened)))
                if self._stream_day is None or newest > self._stream_day:
                    self._stream_day = newest
        replayed = 0
        if replay.any():
            owner = np.repeat(np.arange(n_users, dtype=np.int64), lengths)
            events = np.flatnonzero(replay[owner])
            if positions is not None:
                events = events[np.argsort(positions[events], kind="stable")]
            for user, timestamp in zip(
                owner[events].tolist(), stamps[events].tolist()
            ):
                self.observe(user_ids[user], timestamp)
            # observe() counted these events already.
            replayed = int(events.size)
        self._n_events += int(stamps.size) - replayed

    @property
    def n_events(self) -> int:
        return self._n_events

    def n_users(self) -> int:
        return len(self._table)

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
            "users_seen": float(len(self._table)),
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
            beat["checkpoint_age_s"] = float(wall_now() - self._checkpoint_wall)
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
        self._dirty.update(range(len(self._table)))
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

    def _drift_on_new_cell(self, user_id: str, row: int) -> None:
        """Advance the stream clock and run the throttled lifecycle check."""
        config = self.drift
        if config is None:
            return
        table = self._table
        day = table.max_day[row]
        if self._stream_day is None or day > self._stream_day:
            self._stream_day = day
        if table.conf_day[row] == _NO_DAY:
            # This user's confidence record, created at full on first use.
            table.reset_confidence(row, day)
        if day - table.last_check[row] < config.check_interval_days:
            return
        self._drift_check(user_id, row, day)

    def _drift_check(self, user_id: str, row: int, now_day: int) -> None:
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
        table = self._table
        table.last_check[row] = now_day
        obs_metrics.counter(
            "repro_stream_drift_checks_total",
            "per-user confidence-lifecycle checks run",
        ).inc()
        if user_id in self._pending_refine:
            self._refine(user_id, row, now_day)
            if user_id in self._pending_refine:
                # Still settling: the record is too young for the
                # change-point machinery to say anything new.
                return
        # The evidence floors are decided on cell counts (the day masks'
        # popcounts) before any hour vector is built: most checks stop
        # there.
        window_start = now_day - config.window_days + 1
        masks = table.window_bits(row, window_start, now_day)
        window_cells = sum(map(int.bit_count, masks))
        if window_cells < config.min_window_cells:
            # Casual posters: "recent behaviour" just spans more days for
            # them.  Stretch the window back (up to 4x) until it holds
            # enough cells, instead of leaving them forever uncheckable.
            limit = now_day - 4 * config.window_days + 1
            bits = table.day_bits(row)
            for day in sorted(
                (d for d in bits if limit <= d < window_start), reverse=True
            ):
                masks.append(bits[day])
                window_cells += bits[day].bit_count()
                if window_cells >= config.min_window_cells:
                    break
        record = table.counts[row]
        window_ok, history_ok = detector.has_evidence(
            window_cells, float(record.sum()) - window_cells
        )
        if not window_ok:
            # Too little recent evidence to judge; confidence keeps
            # decaying until the window fills back up.
            return
        if not history_ok:
            # Young record: the window *is* the record, nothing to drift
            # from -- fresh consistent evidence re-verifies.
            table.reset_confidence(row, now_day)
            return
        window = table.counts_of_bits(masks)
        score = detector.score(window, record - window)
        value, as_of_day = table.conf_value[row], table.conf_day[row]
        effective = float(decayed_confidence(value, as_of_day, now_day, config.decay_per_day))
        if score > config.screen_threshold:
            # The windowed score dilutes as post-change data bleeds into
            # the history, so it only screens; the localised split score
            # (undiluted, pure prefix vs pure suffix) makes the call.
            anchor, split_score = self._split_change_day(row, now_day)
            if detector.fires(split_score):
                self._reestimate(
                    user_id,
                    row,
                    now_day,
                    anchor,
                    split_score,
                    effective,
                    "change-point",
                )
                return
        if effective >= config.confidence_threshold:
            table.reset_confidence(row, now_day)
            return
        # Confidence has decayed below threshold without a change-point.
        # Re-verify from the window first (ADR-003): a window placing
        # within one zone of the full record (placement itself has ~1 h
        # of chronotype noise) restores confidence without touching the
        # record; only a clearly disagreeing window migrates.
        window_index, window_flat = self._place_from_counts(window, row)
        record_index, record_flat = self._place_from_counts(table.counts[row], row)
        agrees = window_flat == record_flat and (
            (window_index is None and record_index is None)
            or (
                window_index is not None
                and record_index is not None
                and abs(window_index - record_index) <= 1
            )
        )
        if agrees:
            table.reset_confidence(row, now_day)
            return
        anchor, split_score = self._split_change_day(row, now_day)
        self._reestimate(
            user_id,
            row,
            now_day,
            anchor,
            split_score if split_score >= 0.0 else score,
            effective,
            "confidence",
        )

    def _place_from_counts(
        self, counts: FloatArray, row: int
    ) -> "tuple[int | None, bool]":
        """(zone index, flat flag) *row* would be assigned with *counts*."""
        if self._table.posts[row] < self.min_posts:
            return None, False
        total = counts.sum()
        if total <= 0.0:
            return None, False
        matrix = ProfileMatrix(["_"], (counts / total)[None, :])
        flat, nearest = classify_profiles(matrix, self.references, self.metric)
        if bool(flat[0]):
            return None, True
        return int(nearest[0]), False

    def zone_index_of(self, user_id: str) -> "int | None":
        """Index into ``ZONE_OFFSETS`` of *user_id*'s current placement.

        ``None`` for unknown, under-evidenced, or flat-filtered users.
        Clean users are read from the incremental cache; dirty ones are
        placed fresh, so the answer never depends on snapshot cadence.
        """
        table = self._table
        row = table.index.get(user_id)
        if row is None:
            return None
        if row not in self._dirty:
            zone = int(table.zone[row])
            return None if zone == _UNPLACED else zone
        index, flat = self._place_from_counts(table.counts[row], row)
        return None if flat else index

    def _split_change_day(self, row: int, now_day: int) -> "tuple[int, float]":
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
        detector = self._detector
        if detector is None:
            return now_day, -1.0
        table = self._table
        bits = table.day_bits(row)
        if not bits:
            return now_day, -1.0
        return _scan_splits(detector, bits, table.counts[row])

    def _reestimate(
        self,
        user_id: str,
        row: int,
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
        table = self._table
        recent = table.counts_of_bits(table.window_bits(row, anchor, now_day))
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
                table.counts[row] - recent, row
            )
            table.truncate(row, anchor)
            new_index, new_flat = self._place_from_counts(table.counts[row], row)
            table.reset_confidence(row, now_day)
            self._dirty.add(row)
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
            record_version=int(table.version[row]),
            wall_time=wall_now(),
        )
        # The zone is re-checked at later lifecycle checks until the
        # truncated record settles, whether or not an event fires now.
        self._pending_refine[user_id] = event
        if new_index == old_index and new_flat == was_flat:
            return
        self._emit_migration(event)

    def _refine(self, user_id: str, row: int, now_day: int) -> None:
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
        table = self._table
        cells = float(table.counts[row].sum())
        settled = cells >= _REFINE_SETTLED_FACTOR * config.min_reestimate_cells
        if settled:
            del self._pending_refine[user_id]
        new_index, new_flat = self._place_from_counts(table.counts[row], row)
        if new_flat:
            return
        table.reset_confidence(row, now_day)
        new_offset = None if new_index is None else int(ZONE_OFFSETS[new_index])
        if new_offset is None or new_offset == prior.new_offset:
            return
        event = ZoneMigrationEvent(
            user_id=user_id,
            old_offset=prior.new_offset,
            new_offset=new_offset,
            day=now_day,
            emd_score=prior.emd_score,
            confidence=table.conf_value[row],
            window_cells=int(cells),
            reason="refine",
            record_version=int(table.version[row]),
            wall_time=wall_now(),
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
        table = self._table
        days = np.asarray(table.conf_day, dtype=np.int64)
        tracked = (np.asarray(table.posts) >= self.min_posts) & (days != _NO_DAY)
        values = np.asarray(table.conf_value, dtype=np.float64)[tracked]
        values = decayed_confidence(values, days[tracked], now_day, config.decay_per_day)
        if not values.size:
            return ConfidenceSummary(
                n_tracked=0,
                mean=float("nan"),
                minimum=float("nan"),
                n_stale=0,
                threshold=config.confidence_threshold,
            )
        n_stale = int((values < config.confidence_threshold).sum())
        obs_metrics.gauge(
            "repro_stream_drift_stale_users",
            "placed users below the confidence threshold",
        ).set(n_stale)
        return ConfidenceSummary(
            n_tracked=int(values.size),
            mean=float(values.mean()),
            minimum=float(values.min()),
            n_stale=n_stale,
            threshold=config.confidence_threshold,
        )

    # -- incremental placement --------------------------------------------

    def _refresh(self) -> None:
        """Re-place exactly the dirty rows and patch the histogram.

        The bincount of the dirty rows' cached zones is subtracted, the
        rows past the activity threshold are gathered and classified
        (flatness and nearest zone) in one
        :func:`~repro.core.placement.classify_profiles` pass, and the
        bincount of their new zones is added.  Distances are per-row
        independent, so the result is bit-identical to a cold full
        re-place no matter how the work was batched across snapshots.
        """
        if not self._dirty:
            return
        table = self._table
        rows = np.fromiter(self._dirty, dtype=np.int64, count=len(self._dirty))
        self._dirty.clear()
        self._matrix_cache = None
        stale = table.zone[rows]
        self._hist -= np.bincount(
            stale[stale != _UNPLACED], minlength=len(ZONE_OFFSETS)
        )
        table.zone[rows] = _UNPLACED
        rows = rows[np.asarray(_pick(table.posts, rows)) >= self.min_posts]
        if not rows.size:
            return
        # The same classifier the cold pipeline polishes and places with;
        # distances are per-row independent, so batching users differently
        # across snapshots cannot change any individual verdict.
        flat, nearest = classify_profiles(
            table.masses(rows), self.references, self.metric
        )
        placed = nearest[~flat]
        table.zone[rows[~flat]] = placed
        self._hist += np.bincount(placed, minlength=len(ZONE_OFFSETS))

    def _active_matrix(self) -> ProfileMatrix:
        """One matrix of all threshold-passing, non-flat users.

        Cached between snapshots and invalidated through the same dirty
        set as the placement histogram, so repeated snapshots of a quiet
        crowd rebuild nothing.  Row order follows first-observation order
        (the table's row order), matching the cold pipeline.
        """
        self._refresh()
        if self._matrix_cache is None:
            table = self._table
            rows = np.flatnonzero(table.zone[: len(table)] != _UNPLACED)
            self._matrix_cache = (
                ProfileMatrix(_pick(table.ids, rows), table.masses(rows))
                if rows.size
                else ProfileMatrix.empty()
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
            n_users_seen=len(self._table),
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
        table = self._table
        rows = np.flatnonzero(np.asarray(table.posts) >= self.min_posts)
        if rows.size:
            full = ProfileMatrix(_pick(table.ids, rows), table.masses(rows))
            matrix = full.select(
                ~flat_profile_mask(full, self.references, metric=self.metric)
            )
        else:
            matrix = ProfileMatrix.empty()
        if len(matrix) == 0 or len(matrix) < self.min_users_for_verdict:
            return StreamSnapshot(
                n_events_seen=self._n_events,
                n_users_seen=len(self._table),
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
            n_users_seen=len(self._table),
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
        meta, arrays = self._state_columns()
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
        # The table's python ids, which keep trailing NUL characters.
        for i, (user_id, row) in enumerate(zip(self._table.ids, rows)):
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

    def binary_state(self) -> "tuple[dict[str, Any], dict[str, AnyArray]]":
        """The resumable state as (JSON metadata, numpy columns).

        The one serialiser of both checkpoint formats (:meth:`state_dict`
        renders these columns as JSON): the table's columns as they are,
        with all users' cells as one encoded ``day * 24 + hour`` int64
        column plus a per-user offset table.  Version 2 adds the
        versioned-record columns and two timeline columns; the anchor
        column uses a far-out-of-range sentinel for "no anchor".  A user
        id the unicode id column would alter raises :class:`CheckpointError`.
        """
        meta, columns = self._state_columns()
        return meta, {"user_ids": id_column(self._table.ids, CheckpointError), **columns}

    def _state_columns(self) -> "tuple[dict[str, Any], dict[str, AnyArray]]":
        """:meth:`binary_state` but for the id column."""
        table = self._table
        offsets, cells = table.cell_column()
        newest = np.asarray(table.max_day, dtype=np.int64)
        days = np.asarray(table.conf_day, dtype=np.int64)
        tracked = days != _NO_DAY
        meta = {
            "config": self._config_dict(),
            "n_events": self._n_events,
            "stream_day": self._stream_day,
            "drift": None if self.drift is None else self.drift.as_dict(),
        }
        timeline = self.timeline if self.timeline is not None else CompositionTimeline()
        timeline_days, timeline_hists = timeline.arrays()
        columns = {
            "n_posts": np.asarray(table.posts, dtype=np.int64),
            "cell_offsets": offsets,
            "cells": cells,
            "generic_profile": np.asarray(self.references.generic.mass, dtype=np.float64),
            "record_version": table.version[: len(table)].copy(),
            "anchor_day": np.asarray(table.anchor, dtype=np.int64),
            # A user without a confidence record is written at full
            # confidence as of their newest day (day 0 before any).
            "confidence": np.where(tracked, np.asarray(table.conf_value, dtype=np.float64), 1.0),
            "confidence_day": np.where(tracked, days, np.where(newest == _NO_DAY, 0, newest)),
            "timeline_days": timeline_days,
            "timeline_hists": timeline_hists,
        }
        return meta, columns

    def save_checkpoint(self, path: "str | Path") -> None:
        """Atomically persist the state; a ``.npz`` *path* gets the binary
        payload, any other the JSON document.

        JSON stays the format of non-``.npz`` paths, so checkpoints
        written by earlier releases and by unchanged callers keep their
        format; the binary payload is the fast path for big crowds.  Both
        formats are written at :data:`STREAM_CHECKPOINT_VERSION` (2): an
        old reader refuses them loudly instead of silently dropping the
        drift state.
        """
        kind, version = STREAM_CHECKPOINT_KIND, STREAM_CHECKPOINT_VERSION
        if str(path).endswith(".npz"):
            write_binary_checkpoint(path, kind, version, *self.binary_state())
        else:
            write_checkpoint(path, kind, version, self.state_dict())
        self._checkpoint_events = self._n_events
        self._checkpoint_wall = wall_now()

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
        columns).  The columns become the table's as they are, the counts
        rebuilt by one bincount over the cell column (masked by each
        record's anchor); a repeated user id raises :class:`CheckpointError`."""
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
                for name in ("anchor_day", "record_version", "confidence", "confidence_day"):
                    if np.size(arrays[name]) != n_users:
                        raise CheckpointError(
                            f"checkpoint column {name!r} disagrees on the user count"
                        )
                anchor_col = np.asarray(arrays["anchor_day"], dtype=np.int64)
                version_col = np.asarray(arrays["record_version"], dtype=np.int64)
                confidence_col = np.asarray(arrays["confidence"], dtype=np.float64)
                confidence_day_col = np.asarray(arrays["confidence_day"], dtype=np.int64)
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
            table = geolocator._table
            table.append(user_ids, n_posts, cells, np.diff(offsets), anchor_col)
            if len(table.index) != n_users:
                raise CheckpointError("checkpoint column 'user_ids' repeats an id")
            table.version[:n_users] = version_col
            if drift_config is not None:
                # A day-less confidence falls back to the record's newest day.
                newest = np.asarray(table.max_day, dtype=np.int64)
                fallback = np.where(newest == _NO_DAY, 0, newest)
                table.conf_value = confidence_col.tolist()
                table.conf_day = np.where(
                    confidence_day_col == _NO_DAY, fallback, confidence_day_col
                ).tolist()
                if geolocator._stream_day is None and (newest != _NO_DAY).any():
                    # Version 1 never stored the stream day; decay needs a
                    # "now", so the newest observed day stands in.
                    geolocator._stream_day = int(newest.max())
        except CheckpointError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed streaming-geolocator state: {exc!r}"
            ) from exc
        geolocator._dirty.update(range(n_users))
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
