"""The segmented Eq. 1 kernels behind every per-user profile build.

The batch engine (:mod:`repro.core.batch`), the sharded engine
(:mod:`repro.core.shard`) and the streaming bulk intake
(:mod:`repro.core.streaming`) all start from the same input: one stamp
column holding every user's posts back to back, plus the per-user
segment sizes (:meth:`repro.core.events.TraceSet.columns` for in-memory
crowds, the memmapped shard columns for stores).  This module turns
that column into either the ``(n_users, 24)`` count matrix of unique
active (day, hour) cells (:func:`segment_counts`) or the distinct cells
themselves (:func:`segment_unique_cells`).  Both are one vectorised
numpy pass: encode every post as ``user * span + cell``, drop duplicate
cells, then bincount.  The EMD kernel is cache-blocked numpy too and
lives in :mod:`repro.core.emd`.

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
* Stamps inside that distance are re-encoded by ``split_day_hours``,
  unless ``floor(q) * 3600 == stamp``: an exact hour multiple, whose
  every intermediate is an exact integer in both methods, stays on the
  fast path, so hour-quantised columns do not fall back wholesale.

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
    from repro.core.types import BoolArray, FloatArray, IntArray

#: Hours per day -- duplicated from :mod:`repro.core.profiles` to keep this
#: module import-light (profiles imports events; kernels must not).
HOURS = 24

_SECONDS_PER_HOUR = 3600.0

#: The stamp rule's bound in hours; beyond it ``cell * 3600`` may round.
_MAX_HOURS = 2.0**40

#: The stamp rule's bound in seconds: 2**40 hours, about 125 million years.
MAX_ABS_STAMP_S = _MAX_HOURS * _SECONDS_PER_HOUR


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
    # |fraction - 1/2| >= 1/2 - tol  <=>  within tol of an hour boundary.
    distance = np.subtract(quotient, floors, out=quotient)
    np.subtract(distance, 0.5, out=distance)
    np.abs(distance, out=distance)
    near = distance >= 0.5 - tol
    cells = floors.astype(np.int64)
    if near.any():
        doubtful = np.flatnonzero(near)
        doubtful = doubtful[floors[doubtful] * _SECONDS_PER_HOUR != stamps[doubtful]]
        if doubtful.size:
            days, hours = split_day_hours(stamps[doubtful])
            cells[doubtful] = days * HOURS + hours
    return cells


def _sorted_unique(values: "IntArray") -> "IntArray":
    """Unique values via an explicit sort + diff.

    Equivalent to ``np.unique`` for 1-D int arrays but avoids its
    hash-table machinery, which is an order of magnitude slower than a
    plain sort for the hundreds of thousands of encoded cells a large
    crowd produces.
    """
    if values.size == 0:
        return values
    ordered = np.sort(values)
    keep = np.empty(ordered.shape, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def _unique_cells(
    stamps: "FloatArray", lengths: "IntArray"
) -> "tuple[IntArray, IntArray]":
    """Every distinct (user, cell) pair of a column, by user then cell.

    Returns ``(owners, cells)``: the owning user's index and the
    ``day * 24 + hour`` cell of each pair.  *stamps* must be non-empty.
    """
    user_index = np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)
    cells = _hour_cells(stamps)
    cell_min = int(cells.min())
    span = int(cells.max()) - cell_min + 1
    encoded = user_index * span + (cells - cell_min)
    deltas = np.diff(encoded)
    if np.all(deltas >= 0):
        # Traces and store segments keep timestamps sorted per user, and
        # the cell encoding is monotone in the timestamp, so the encoded
        # column is usually already sorted -- dedupe by consecutive
        # compare, skipping the O(n log n) sort entirely.
        keep = np.empty(encoded.shape, dtype=bool)
        keep[0] = True
        np.not_equal(deltas, 0, out=keep[1:])
        return user_index[keep], cells[keep]
    unique = _sorted_unique(encoded)
    owners = unique // span
    return owners, unique - owners * span + cell_min


def segment_counts(stamps: "FloatArray", lengths: "IntArray") -> "FloatArray":
    """Vectorised Eq. 1 counts over a stamp column.

    *stamps* holds every user's timestamps back to back; *lengths* gives
    the per-user segment sizes.  Returns ``(len(lengths), 24)`` counts of
    unique active (day, hour) cells per hour -- always float64 so the rows
    feed :class:`~repro.core.batch.ProfileMatrix` without a cast.
    """
    n_users = int(lengths.size)
    if stamps.size == 0:
        return np.zeros((n_users, HOURS), dtype=float)
    owners, cells = _unique_cells(stamps, lengths)
    # owners * 24 + cells % 24, in place: numpy's integer remainder costs
    # several times a floor-division by a scalar.
    codes = cells // HOURS
    codes *= -HOURS
    codes += cells
    codes += owners * HOURS
    flat = np.bincount(codes, minlength=n_users * HOURS)
    return flat.reshape(n_users, HOURS).astype(float)


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
    :func:`_unique_cells`, so they agree cell for cell.
    """
    n_users = int(lengths.size)
    if stamps.size == 0:
        return (
            np.zeros(0, dtype=np.int64),
            np.zeros(n_users, dtype=np.int64),
        )
    owners, cells = _unique_cells(stamps, lengths)
    cell_lengths = np.bincount(owners, minlength=n_users).astype(np.int64)
    return cells, cell_lengths
