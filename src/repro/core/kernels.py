"""The segmented Eq. 1 kernels behind every per-user profile build.

The batch engine (:mod:`repro.core.batch`), the sharded engine
(:mod:`repro.core.shard`) and the streaming bulk intake
(:mod:`repro.core.streaming`) all start from the same input: one stamp
column holding every user's posts back to back, plus the per-user
segment sizes (:meth:`repro.core.events.TraceSet.columns` for in-memory
crowds, the memmapped shard columns for stores).  This module turns
that column into either the ``(n_users, 24)`` count matrix of unique
active (day, hour) cells (:func:`segment_counts`) or the distinct cells
themselves (:func:`segment_unique_cells`).  The EMD kernel is
cache-blocked numpy too and lives in :mod:`repro.core.emd`.

**Blocks.**  Both kernels walk the column in user-aligned blocks of
about :data:`_BLOCK_STAMPS` stamps: a block takes whole users while
their stamps fit, and a user longer than a block is a block of its own.
Each block's temporaries (quotients, cells, differences, keep mask,
codes) stay inside L2 whatever the column size, where one pass over a
store-sized column used to spill the cache.  No per-user quantity
depends on its block, so the output is the same for any block size.

**The sorted path.**  Traces and store segments keep each user's stamps
sorted, and the cell is monotone in the stamp, so a block is usually
sorted within every user.  Then a post repeats a cell exactly when its
cell equals the previous post's and both belong to one user: the block
is deduplicated on its own cell differences, with each user's first post
forced kept.  A block holding a descending step inside a user takes the
sort path instead: every post is encoded as ``user * span + cell``,
sorted and deduplicated by consecutive compare.  Either way the kept
cells come out ascending within each user.  :func:`segment_counts` then
bincounts ``24 * user + hour`` of the kept cells; :func:`segment_unique_cells`
returns the cells and each user's count of them.

**The cell encoder.**  A post's cell ``day * 24 + hour`` is the number
of whole hours since the epoch, ``floor(stamp / 3600)``, and
:func:`_hour_cells` computes it with one float division and one floor
per post.  :func:`repro.timebase.clock.split_day_hours` remains the
definition (two floor-divides, a modulo and a clip per post), and the
encoder equals it cell for cell:

* ``split_day_hours`` is exact -- it returns the floor of the real
  quotient -- except for a negative stamp whose position within its day
  lies within 2**-37 s below an hour boundary, where the Python-style
  modulo ``fmod + 86400`` rounds up onto the boundary.
* The computed quotient is off the real one by at most ``|q| * 2**-53``;
  the fractional part ``q - floor(q)`` adds at most 2**-54.
* So wherever the fractional part lies more than
  ``tol = bound * 2**-52 + 2**-47`` from both 0 and 1 (``bound`` caps
  ``|q|`` over the column, and 2**-47 h is more than 2**-37 s), both
  methods give the floor of the real quotient.
* The encoder tests that with the fractions' minimum and maximum, and
  builds the per-post mask of fractions within ``tol`` of 0 or 1 only
  when one of the two lies there.  Stamps in the mask are re-encoded by
  ``split_day_hours``, unless ``floor(q) * 3600 == stamp``: an exact
  hour multiple, whose every intermediate is an exact integer in both
  methods, stays on the fast path, so hour-quantised columns do not
  fall back wholesale.

The encoder is exact only where :func:`valid_stamps` holds -- finite and
less than 2**40 hours from the epoch; beyond that, products of cells and
3600 stop being exact.  Every intake admits a stamp only under that rule,
and the encoder enforces it too: a column holding a stamp the rule
refuses raises :class:`~repro.errors.CorruptTraceError`, so no caller
gets a cell for a NaN.  Cells are UTC; a caller wanting another zone's
clock shifts its stamps.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, overload

import numpy as np

from repro.errors import CorruptTraceError
from repro.timebase.clock import split_day_hours

if TYPE_CHECKING:
    from collections.abc import Iterator

    from repro.core.types import BoolArray, FloatArray, IntArray

#: Hours per day -- duplicated from :mod:`repro.core.profiles` to keep this
#: module import-light (profiles imports events; kernels must not).
HOURS = 24

_SECONDS_PER_HOUR = 3600.0

#: The stamp rule's bound in hours; beyond it ``cell * 3600`` may round.
_MAX_HOURS = 2.0**40

#: The stamp rule's bound in seconds: 2**40 hours, about 125 million years.
MAX_ABS_STAMP_S = _MAX_HOURS * _SECONDS_PER_HOUR

#: Stamps in one block of the Eq. 1 kernels (a user longer than this is a
#: block of its own).  A block's int64 and float64 temporaries take
#: 256 KiB each at this size, so the handful alive at once stay in L2.
_BLOCK_STAMPS = 2**15


@overload
def valid_stamps(stamps: float) -> bool:
    ...


@overload
def valid_stamps(stamps: "FloatArray") -> "BoolArray":
    ...


def valid_stamps(stamps: "float | FloatArray") -> "bool | BoolArray":
    """The stamp rule: finite and less than 2**40 hours from the epoch.

    One bool for a scalar, a mask for an array.  NaN compares false, so
    the one comparison refuses non-finite stamps too.
    """
    return abs(stamps) < MAX_ABS_STAMP_S


def _hour_cells(stamps: "FloatArray") -> "IntArray":
    """``day * 24 + hour`` of every UTC stamp, as int64.

    Cell for cell equal to ``days * 24 + hours`` of
    :func:`~repro.timebase.clock.split_day_hours` (the module docstring
    gives the argument), at the cost of one division and one floor per
    post instead of two floor-divides, a modulo and a clip.  Raises
    :class:`~repro.errors.CorruptTraceError` when a stamp breaks the
    stamp rule of :func:`valid_stamps`.
    """
    stamps = np.asarray(stamps, dtype=np.float64)
    if stamps.size == 0:
        return np.zeros(0, dtype=np.int64)
    quotient = stamps / _SECONDS_PER_HOUR
    # Division by 3600 keeps |q| < 2**40 exactly when |stamp| < 2**40 h,
    # so the quotient's extremes decide the rule for the whole column.
    low, high = float(quotient.min()), float(quotient.max())
    if not -_MAX_HOURS < low <= high < _MAX_HOURS:  # also catches NaN
        raise CorruptTraceError(
            "stamp column holds a non-finite timestamp or one 2**40 hours "
            "or more from the epoch"
        )
    floors = np.floor(quotient)
    bound = float(max(-math.floor(low), math.floor(high) + 1))
    tol = bound * 2.0**-52 + 2.0**-47
    fraction = np.subtract(quotient, floors, out=quotient)
    cells = floors.astype(np.int64)
    if fraction.min() <= tol or fraction.max() >= 1.0 - tol:
        near = np.flatnonzero((fraction <= tol) | (fraction >= 1.0 - tol))
        doubtful = near[floors[near] * _SECONDS_PER_HOUR != stamps[near]]
        if doubtful.size:
            days, hours = split_day_hours(stamps[doubtful])
            cells[doubtful] = days * HOURS + hours
    return cells


def _sort_unique(
    cells: "IntArray", lengths: "IntArray"
) -> "tuple[IntArray, IntArray]":
    """The sort path: distinct cells of each user via ``user * span + cell``.

    Returns the cells, ascending within each user, and each user's count
    of them.  An explicit sort + diff, not ``np.unique``, whose hash-table
    machinery is an order of magnitude slower than a plain sort.
    """
    owners = np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)
    cell_min = int(cells.min())
    span = int(cells.max()) - cell_min + 1
    encoded = owners * span + (cells - cell_min)
    encoded.sort()
    keep = np.empty(encoded.shape, dtype=bool)
    keep[0] = True
    np.not_equal(encoded[1:], encoded[:-1], out=keep[1:])
    unique = encoded[keep]
    owners = unique // span
    cell_lengths = np.bincount(owners, minlength=lengths.size).astype(np.int64)
    return unique - owners * span + cell_min, cell_lengths


def _block_unique(
    stamps: "FloatArray", lengths: "IntArray", offsets: "IntArray"
) -> "tuple[IntArray, IntArray]":
    """Distinct cells of one block and each user's count of them.

    *offsets* are the block's user boundaries (``offsets[0] == 0``,
    ``offsets[-1] == stamps.size``); *stamps* must be non-empty.
    """
    cells = _hour_cells(stamps)
    steps = np.diff(cells)
    heads = offsets[1:-1]
    # A new user's first post is kept whatever its cell: marking its step
    # positive keeps it and exempts it from the sortedness test.
    steps[heads[(heads > 0) & (heads < cells.size)] - 1] = 1
    if steps.size and steps.min() < 0:
        return _sort_unique(cells, lengths)
    keep = np.empty(cells.shape, dtype=bool)
    keep[0] = True
    np.not_equal(steps, 0, out=keep[1:])
    cell_lengths = lengths.astype(np.int64)
    repeats = np.flatnonzero(~keep)
    if repeats.size:
        owners = np.searchsorted(offsets, repeats, side="right") - 1
        cell_lengths -= np.bincount(owners, minlength=lengths.size)
    return cells[keep], cell_lengths


def _unique_blocks(
    stamps: "FloatArray", lengths: "IntArray"
) -> "Iterator[tuple[int, int, IntArray, IntArray]]":
    """``(first, stop, cells, cell_lengths)`` of each user-aligned block.

    Users ``first:stop`` form a block of at most :data:`_BLOCK_STAMPS`
    stamps, or one user longer than that; *cells* are their distinct
    cells, ascending within each user, and *cell_lengths* each user's
    count of them.
    """
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    stamps = np.asarray(stamps)
    if offsets[-1] != stamps.size:
        raise ValueError(
            f"segment lengths sum to {int(offsets[-1])} for {stamps.size} stamps"
        )
    first = 0
    while first < lengths.size:
        begin = int(offsets[first])
        stop = int(
            np.searchsorted(offsets, begin + _BLOCK_STAMPS, side="right")
        ) - 1
        stop = max(stop, first + 1)
        end = int(offsets[stop])
        if end > begin:
            cells, cell_lengths = _block_unique(
                stamps[begin:end],
                lengths[first:stop],
                offsets[first : stop + 1] - begin,
            )
        else:
            cells = np.zeros(0, dtype=np.int64)
            cell_lengths = np.zeros(stop - first, dtype=np.int64)
        yield first, stop, cells, cell_lengths
        first = stop


def segment_counts(stamps: "FloatArray", lengths: "IntArray") -> "FloatArray":
    """Vectorised Eq. 1 counts over a stamp column.

    *stamps* holds every user's timestamps back to back; *lengths* gives
    the per-user segment sizes.  Returns ``(len(lengths), 24)`` counts of
    unique active (day, hour) cells per hour -- always float64 so the rows
    feed :class:`~repro.core.batch.ProfileMatrix` without a cast.
    """
    counts = np.zeros((int(lengths.size), HOURS), dtype=float)
    if stamps.size == 0:
        return counts
    for first, stop, cells, cell_lengths in _unique_blocks(stamps, lengths):
        # 24 * user + cell % 24, in place: numpy's integer remainder costs
        # several times a floor-division by a scalar.
        codes = cells // HOURS
        codes *= -HOURS
        codes += cells
        codes += np.repeat(
            np.arange(0, (stop - first) * HOURS, HOURS, dtype=np.int64),
            cell_lengths,
        )
        counts[first:stop] = np.bincount(
            codes, minlength=(stop - first) * HOURS
        ).reshape(-1, HOURS)
    return counts


def segment_unique_cells(
    stamps: "FloatArray", lengths: "IntArray"
) -> "tuple[IntArray, IntArray]":
    """Per-user sorted unique ``day * 24 + hour`` cells of a segmented column.

    The deduplication half of :func:`segment_counts`, for the streaming
    bulk intake (:meth:`repro.core.streaming.StreamingGeolocator.observe_batch`),
    which needs the distinct cells themselves (to diff against each
    user's incremental record) rather than their per-hour histogram.
    Returns ``(cells, cell_lengths)``: one concatenated int64 cell column,
    ascending within each user's segment, plus the per-user segment sizes
    (``cell_lengths.sum() == cells.size``).  Both kernels share
    :func:`_unique_blocks`, so they agree cell for cell.
    """
    if stamps.size == 0:
        return (
            np.zeros(0, dtype=np.int64),
            np.zeros(int(lengths.size), dtype=np.int64),
        )
    blocks = list(_unique_blocks(stamps, lengths))
    return (
        np.concatenate([cells for _, _, cells, _ in blocks]),
        np.concatenate([cell_lengths for _, _, _, cell_lengths in blocks]),
    )
