"""Columnar trace store: out-of-core timestamps for million-user crowds.

JSONL trace sets are convenient for interchange but hostile to scale:
loading one re-parses every timestamp through the JSON decoder and
materialises a Python :class:`~repro.core.events.ActivityTrace` per user.
At the crowd sizes the ROADMAP targets (millions of users, hundreds of
millions of posts) that parse dominates wall-clock before a single
profile is built.

:class:`TraceStore` compiles a trace set once into a columnar binary
layout -- one concatenated ``float64`` timestamp array, one ``int64``
per-user offset table and a user-id table -- stored as plain ``.npy``
files inside a store directory:

.. code-block:: text

    crowd.store/
      meta.json        {"kind": "trace-store", "version": 1, counts...}
      stamps.npy       float64[total_posts]   all users' stamps, back to back
      offsets.npy      int64[n_users + 1]     user i owns stamps[o[i]:o[i+1]]
      user_ids.npy     unicode[n_users]       row order of the offset table

Readers open the stamp column with ``numpy``'s memmap support, so
:meth:`TraceStore.shard` hands out any contiguous user range of
:meth:`TraceStore.shard_bounds` as zero-copy views, peak memory bounded
by the shard, and the sharded engine (:mod:`repro.core.shard`) and
:meth:`repro.core.batch.ProfileMatrix.from_store` feed the Eq. 1 kernel
raw stamp segments without constructing a single per-trace Python
object.  :meth:`TraceStore.open` refuses an offset table that does not
tile the stamp column in order, and :meth:`TraceStore.shard` a segment
holding a stamp the intake rule refuses, the stamps of users below the
activity threshold included.  Both writers spool the stamp column to
disk block by block (``tofile``): :meth:`TraceStore.write` hands its traces
to :meth:`TraceStore.write_columns` in blocks of
:data:`_WRITE_BLOCK_TRACES`, so converting holds one block beyond the
source arrays.  Both refuse a stamp that
:func:`repro.core.kernels.valid_stamps` refuses before it reaches disk.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import shutil
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.events import ActivityTrace, TraceSet, id_column
from repro.core.kernels import valid_stamps
from repro.errors import CorruptTraceError, DatasetError
from repro.obs import metrics as obs_metrics
from repro.obs.logs import get_logger, log_event

_log = get_logger("datasets")

#: Envelope identifiers checked on open, mirroring the checkpoint format.
STORE_KIND = "trace-store"
STORE_VERSION = 1

#: Users per shard of :meth:`TraceStore.default_shard_count`.
DEFAULT_SHARD_USERS = 8_192

_META_NAME = "meta.json"
_STAMPS_NAME = "stamps.npy"
_OFFSETS_NAME = "offsets.npy"
_USER_IDS_NAME = "user_ids.npy"

#: Traces per column chunk that :meth:`TraceStore.write` hands to
#: :meth:`TraceStore.write_columns`.
_WRITE_BLOCK_TRACES = 4096


def _stamp_refusal(
    user_ids: Sequence[str], lengths: np.ndarray, stamps: np.ndarray
) -> str | None:
    """Why a stamp column is refused, naming the user of its first stamp
    the intake rule refuses; ``None`` when the rule admits every stamp."""
    valid = valid_stamps(stamps)
    if valid.all():
        return None
    bad = int(np.argmin(valid))
    user = user_ids[int(np.searchsorted(np.cumsum(lengths), bad, side="right"))]
    kind = "non-finite" if not np.isfinite(stamps[bad]) else "out-of-range"
    return f"user {user!r}: {kind} timestamp {stamps[bad]}"


def _id_block(user_ids: list[str], seen: set[str]) -> np.ndarray:
    """One block's id column; its ids join *seen*, the ids written so far.

    Refused, before anything of the block is written, when an id would
    not read back as written or repeats one already seen.
    """
    column = id_column(user_ids, DatasetError)
    before = len(seen)
    seen.update(user_ids)
    if len(seen) != before + len(user_ids):
        raise DatasetError("duplicate user ids in trace store input")
    return column


def _trace_blocks(
    traces: Iterable[ActivityTrace],
) -> Iterator[tuple[list[str], np.ndarray, np.ndarray]]:
    """*traces* as ``(user_ids, lengths, stamps)`` column chunks.

    Each chunk holds up to :data:`_WRITE_BLOCK_TRACES` users, in input
    order -- the layout :meth:`TraceStore.write_columns` takes.
    """
    iterator = iter(traces)
    while True:
        block = list(itertools.islice(iterator, _WRITE_BLOCK_TRACES))
        if not block:
            return
        yield (
            [trace.user_id for trace in block],
            np.array([len(trace) for trace in block], dtype=np.int64),
            np.concatenate([trace.timestamps for trace in block]),
        )


@dataclass(frozen=True)
class StoreShard:
    """One contiguous block of users, zero-copy views into the stamp column.

    ``stamps`` concatenates the shard's users back to back and ``lengths``
    gives the per-user segment sizes -- the stamp column the Eq. 1
    kernels (:func:`repro.core.kernels.segment_counts`) consume, the
    same layout as :meth:`repro.core.events.TraceSet.columns`, so shards
    flow into profile rows without repacking.
    """

    user_ids: tuple[str, ...]
    stamps: np.ndarray
    lengths: np.ndarray

    def __len__(self) -> int:
        return len(self.user_ids)

    def n_posts(self) -> int:
        return int(self.stamps.size)


class TraceStore:
    """Reader over a compiled store directory (see module docstring)."""

    def __init__(
        self,
        path: Path,
        user_ids: np.ndarray,
        offsets: np.ndarray,
        stamps: np.ndarray,
    ) -> None:
        self.path = path
        self._user_ids = user_ids
        self._offsets = offsets
        self._stamps = stamps
        self._index: dict[str, int] | None = None

    # -- writing -----------------------------------------------------------

    @classmethod
    def write(
        cls, traces: "TraceSet | Iterable[ActivityTrace]", path: "str | Path"
    ) -> "TraceStore":
        """Compile *traces* into a store directory at *path* and open it.

        The traces are read in blocks of :data:`_WRITE_BLOCK_TRACES` and
        written by :meth:`write_columns`, so peak memory beyond the input
        is one block's stamps, and a repeated id or a refused stamp
        refuses the write with nothing landing at *path*.
        """
        return cls.write_columns(_trace_blocks(traces), path)

    @classmethod
    def write_columns(
        cls,
        chunks: Iterable[tuple[Iterable[str], np.ndarray, np.ndarray]],
        path: "str | Path",
    ) -> "TraceStore":
        """Compile a store directly from pre-segmented column chunks.

        Each chunk is ``(user_ids, lengths, stamps)`` -- a block of users
        with their per-user post counts and the matching concatenated
        timestamp segment.  This is the bulk-synthesis path the scale
        bench uses to build million-user stores without ever holding one
        :class:`~repro.core.events.ActivityTrace` (or the full stamp
        column) in memory: stamps are spooled straight to disk chunk by
        chunk and the ``.npy`` header is fixed up once the total is known.
        Only the id and length tables stay resident (a few dozen bytes per
        user).  A chunk holding a stamp the intake rule refuses raises a
        :class:`~repro.errors.DatasetError` naming its user before it is
        spooled.  An existing store at *path* is replaced atomically (built
        under a temporary name, then swapped in), so a crash or a refused
        chunk mid-write never leaves a half store behind.
        """
        destination = Path(path)
        temp = destination.with_name(destination.name + ".tmp")
        if temp.exists():
            shutil.rmtree(temp)
        temp.mkdir(parents=True)
        try:
            seen: set[str] = set()
            id_parts: list[np.ndarray] = []
            length_parts: list[np.ndarray] = []
            total = 0
            spool = temp / (_STAMPS_NAME + ".spool")
            with spool.open("wb") as handle:
                for chunk_ids, chunk_lengths, chunk_stamps in chunks:
                    id_block = [str(user_id) for user_id in chunk_ids]
                    lengths = np.ascontiguousarray(chunk_lengths, dtype=np.int64)
                    stamps = np.ascontiguousarray(chunk_stamps, dtype=np.float64)
                    if lengths.size != len(id_block):
                        raise DatasetError(
                            f"chunk has {len(id_block)} users but "
                            f"{lengths.size} lengths"
                        )
                    if int(lengths.sum()) != stamps.size:
                        raise DatasetError(
                            f"chunk lengths sum to {int(lengths.sum())} but "
                            f"carry {stamps.size} stamps"
                        )
                    refusal = _stamp_refusal(id_block, lengths, stamps)
                    if refusal is not None:
                        raise DatasetError(refusal)
                    id_parts.append(_id_block(id_block, seen))
                    length_parts.append(lengths)
                    stamps.tofile(handle)
                    total += stamps.size
            header = {
                "descr": np.lib.format.dtype_to_descr(np.dtype(np.float64)),
                "fortran_order": False,
                "shape": (int(total),),
            }
            with (temp / _STAMPS_NAME).open("wb") as out_handle:
                np.lib.format.write_array_header_2_0(out_handle, header)
                with spool.open("rb") as spool_handle:
                    shutil.copyfileobj(spool_handle, out_handle)
            spool.unlink()
            all_lengths = (
                np.concatenate(length_parts)
                if length_parts
                else np.zeros(0, dtype=np.int64)
            )
            offsets = np.concatenate(
                [[0], np.cumsum(all_lengths)]
            ).astype(np.int64)
            np.save(temp / _OFFSETS_NAME, offsets, allow_pickle=False)
            np.save(
                temp / _USER_IDS_NAME,
                np.concatenate(id_parts) if id_parts else id_column([], DatasetError),
                allow_pickle=False,
            )
            meta = {
                "kind": STORE_KIND,
                "version": STORE_VERSION,
                "n_users": len(seen),
                "n_posts": int(total),
            }
            (temp / _META_NAME).write_text(json.dumps(meta), encoding="utf-8")
            if destination.exists():
                shutil.rmtree(destination)
            os.replace(temp, destination)
        except Exception:
            shutil.rmtree(temp, ignore_errors=True)
            raise
        return cls.open(destination)

    # -- opening -----------------------------------------------------------

    @classmethod
    def open(cls, path: "str | Path") -> "TraceStore":
        """Open a store directory; the stamp column is memmapped."""
        watch = obs_metrics.Stopwatch()
        source = Path(path)
        meta_path = source / _META_NAME
        if not source.is_dir() or not meta_path.exists():
            raise DatasetError(f"{source} is not a trace store (no {_META_NAME})")
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise DatasetError(f"corrupt trace store {source}: {exc}") from exc
        if meta.get("kind") != STORE_KIND:
            raise DatasetError(
                f"{source} is of kind {meta.get('kind')!r}, expected {STORE_KIND!r}"
            )
        if meta.get("version") != STORE_VERSION:
            raise DatasetError(
                f"{source} has store version {meta.get('version')!r}, "
                f"this code reads version {STORE_VERSION}"
            )
        try:
            user_ids = np.load(source / _USER_IDS_NAME, allow_pickle=False)
            offsets = np.load(source / _OFFSETS_NAME, allow_pickle=False)
            try:
                stamps = np.load(
                    source / _STAMPS_NAME, mmap_mode="r", allow_pickle=False
                )
            except ValueError:
                # Zero-post stores cannot be mmapped (empty file); fall back.
                stamps = np.load(source / _STAMPS_NAME, allow_pickle=False)
        except (OSError, ValueError) as exc:
            raise DatasetError(f"corrupt trace store {source}: {exc}") from exc
        if offsets.ndim != 1 or user_ids.ndim != 1 or stamps.ndim != 1:
            raise DatasetError(f"corrupt trace store {source}: wrong array ranks")
        if offsets.size != user_ids.size + 1:
            raise DatasetError(
                f"corrupt trace store {source}: {user_ids.size} users but "
                f"{offsets.size} offsets"
            )
        if int(offsets[-1]) != stamps.size or int(offsets[0]) != 0:
            raise DatasetError(
                f"corrupt trace store {source}: offset table does not cover "
                f"the stamp column"
            )
        if bool(np.any(offsets[1:] < offsets[:-1])):
            raise DatasetError(
                f"corrupt trace store {source}: offset table decreases"
            )
        elapsed = watch.elapsed_s()
        obs_metrics.counter(
            "repro_datasets_store_opens_total", "trace stores opened"
        ).inc()
        obs_metrics.histogram(
            "repro_datasets_store_open_seconds", "wall time to open a store"
        ).observe(elapsed)
        log_event(
            _log,
            logging.DEBUG,
            "store_open",
            path=str(source),
            n_users=int(user_ids.size),
            n_posts=int(stamps.size),
            wall_s=round(elapsed, 6),
        )
        return cls(source, user_ids, offsets.astype(np.int64), stamps)

    # -- container protocol ------------------------------------------------

    def __len__(self) -> int:
        return int(self._user_ids.size)

    def __contains__(self, user_id: str) -> bool:
        return user_id in self._ensure_index()

    def __repr__(self) -> str:
        return (
            f"TraceStore({str(self.path)!r}, n_users={len(self)}, "
            f"n_posts={self.total_posts()})"
        )

    def total_posts(self) -> int:
        return int(self._stamps.size)

    def user_ids(self) -> list[str]:
        return [str(user_id) for user_id in self._user_ids]

    def lengths(self) -> np.ndarray:
        """Per-user post counts, in user-id table order."""
        return np.diff(self._offsets)

    def _ensure_index(self) -> dict[str, int]:
        if self._index is None:
            self._index = {
                str(user_id): i for i, user_id in enumerate(self._user_ids)
            }
        return self._index

    def stamps_of(self, user_id: str) -> np.ndarray:
        """One user's timestamp segment (zero-copy view of the column)."""
        index = self._ensure_index()
        try:
            row = index[user_id]
        except KeyError:
            raise DatasetError(f"no trace for user {user_id!r} in store") from None
        return np.asarray(
            self._stamps[self._offsets[row] : self._offsets[row + 1]]
        )

    def trace(self, user_id: str) -> ActivityTrace:
        return ActivityTrace(user_id, self.stamps_of(user_id))

    # -- bulk readers ------------------------------------------------------

    def shard_bounds(self, n_shards: int) -> list[tuple[int, int]]:
        """Partition the user-id range into up to *n_shards* contiguous runs.

        Returns ``(start, stop)`` half-open user-index pairs that tile the
        store exactly: every user lands in exactly one shard, shard sizes
        differ by at most one, and empty runs (more shards than users) are
        dropped.  The sharded engine (:mod:`repro.core.shard`) feeds these
        to :meth:`shard` on whichever thread takes each range.
        """
        if n_shards <= 0:
            raise DatasetError(f"n_shards must be positive, got {n_shards}")
        n_users = len(self)
        edges = np.linspace(0, n_users, num=min(n_shards, n_users) + 1)
        cuts = np.round(edges).astype(np.int64)
        return [
            (int(lo), int(hi))
            for lo, hi in zip(cuts[:-1], cuts[1:])
            if hi > lo
        ]

    def default_shard_count(self) -> int:
        """One shard per :data:`DEFAULT_SHARD_USERS` users, at least one.

        The :meth:`shard_bounds` count of a walk not told one:
        ``geolocate_store`` and
        :meth:`repro.core.batch.ProfileMatrix.from_store`.
        """
        return max(1, -(-len(self) // DEFAULT_SHARD_USERS))

    def shard(self, start: int, stop: int) -> StoreShard:
        """One contiguous user range as a :class:`StoreShard` (zero-copy).

        A segment holding a stamp the intake rule refuses -- the writers
        never store one, a damaged store may -- raises
        :class:`~repro.errors.CorruptTraceError` naming its user, whatever
        the reader does with that user's posts.
        """
        n_users = len(self)
        if not 0 <= start <= stop <= n_users:
            raise DatasetError(
                f"shard range [{start}, {stop}) outside store of {n_users} users"
            )
        lo = int(self._offsets[start])
        hi = int(self._offsets[stop])
        shard = StoreShard(
            user_ids=tuple(self._user_ids[start:stop].tolist()),
            stamps=self._stamps[lo:hi],
            lengths=np.diff(self._offsets[start : stop + 1]),
        )
        refusal = _stamp_refusal(shard.user_ids, shard.lengths, shard.stamps)
        if refusal is not None:
            raise CorruptTraceError(f"trace store {self.path}: {refusal}")
        obs_metrics.counter(
            "repro_datasets_store_shards_total", "store shards yielded"
        ).inc()
        return shard

    def iter_column_chunks(
        self, max_posts: int = 262_144
    ) -> "Iterator[tuple[list[str], np.ndarray, np.ndarray]]":
        """Walk the store as ``(user_ids, lengths, stamps)`` column chunks.

        The event-count dual of :meth:`shard_bounds`: chunks are cut at
        roughly *max_posts* events instead of a user count, so a
        crowd of casual posters and a crowd of heavy posters both stream
        with comparable peak memory.  Chunk boundaries never split a user
        -- a user posting more than *max_posts* times becomes a chunk of
        their own -- which is what lets the streaming bulk ingest
        (:meth:`repro.core.streaming.StreamingGeolocator.ingest_store`)
        apply its once-per-(user, chunk) bookkeeping.  The yielded triple
        matches the :meth:`write_columns` chunk layout exactly.
        """
        if max_posts <= 0:
            raise DatasetError(f"max_posts must be positive, got {max_posts}")
        n_users = len(self)
        chunks = obs_metrics.counter(
            "repro_datasets_store_column_chunks_total",
            "column chunks yielded for bulk ingest",
        )
        start = 0
        while start < n_users:
            target = int(self._offsets[start]) + max_posts
            stop = int(
                np.searchsorted(self._offsets, target, side="right") - 1
            )
            # Always advance by at least one user (an oversized trace
            # overflows its own chunk rather than stalling the walk).
            stop = max(stop, start + 1)
            stop = min(stop, n_users)
            lo = int(self._offsets[start])
            hi = int(self._offsets[stop])
            chunks.inc()
            yield (
                self._user_ids[start:stop].tolist(),
                np.diff(self._offsets[start : stop + 1]),
                np.asarray(self._stamps[lo:hi]),
            )
            start = stop

    def to_trace_set(self) -> TraceSet:
        """Materialise the whole store as a :class:`TraceSet` (compat path)."""
        traces = TraceSet()
        for i, user_id in enumerate(self._user_ids):
            lo, hi = int(self._offsets[i]), int(self._offsets[i + 1])
            traces.add(ActivityTrace(str(user_id), np.asarray(self._stamps[lo:hi])))
        return traces


def convert_jsonl(
    jsonl_path: "str | Path", store_path: "str | Path"
) -> TraceStore:
    """Compile a JSONL trace set (see :func:`save_trace_set`) into a store.

    Lines are parsed one at a time through the strict record validator and
    duplicate user lines are merged exactly as :class:`TraceSet` would, so
    geolocating the resulting store is equivalent to geolocating the JSONL
    file -- proven by the equivalence tests in ``tests/test_store.py``.
    """
    from repro.datasets.traces import _parse_trace_line

    source = Path(jsonl_path)
    order: list[str] = []
    buckets: dict[str, list[np.ndarray]] = {}
    with source.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                trace = _parse_trace_line(line)
            except DatasetError as exc:
                raise DatasetError(
                    f"{source}:{line_number}: malformed trace record ({exc})"
                ) from exc
            if trace.user_id not in buckets:
                order.append(trace.user_id)
                buckets[trace.user_id] = []
            buckets[trace.user_id].append(np.asarray(trace.timestamps))
    merged = (
        ActivityTrace(
            user_id,
            buckets[user_id][0]
            if len(buckets[user_id]) == 1
            else np.concatenate(buckets[user_id]),
        )
        for user_id in order
    )
    store = TraceStore.write(merged, store_path)
    log_event(
        _log,
        logging.INFO,
        "store_converted",
        source=str(source),
        store=str(store.path),
        n_users=len(store),
        n_posts=store.total_posts(),
    )
    return store
