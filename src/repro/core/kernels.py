"""The segmented Eq. 1 kernels behind every per-user profile build.

The batch engine (:mod:`repro.core.batch`), the sharded engine
(:mod:`repro.core.shard`) and the streaming bulk intake
(:mod:`repro.core.streaming`) all start from the same input: one
concatenated timestamp column holding every user's posts back to back,
plus the per-user segment sizes.  This module turns that column into
either the ``(n_users, 24)`` count matrix of unique active (day, hour)
cells (:func:`segment_counts`) or the distinct cells themselves
(:func:`segment_unique_cells`).  Both are one vectorised numpy pass:
encode every post as ``user * span + cell``, drop duplicate cells, then
bincount.  The EMD kernel is cache-blocked numpy too and lives in
:mod:`repro.core.emd`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.timebase.clock import split_day_hours

if TYPE_CHECKING:
    from repro.core.types import FloatArray, IntArray

#: Hours per day -- duplicated from :mod:`repro.core.profiles` to keep this
#: module import-light (profiles imports events; kernels must not).
HOURS = 24


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


def _unique_codes(
    stamps: "FloatArray", lengths: "IntArray", offset_hours: float
) -> "tuple[IntArray, int, int]":
    """Sorted unique ``user * span + (cell - cell_min)`` codes of a column.

    Returns ``(codes, span, cell_min)``: ``codes // span`` is the owning
    user's index and ``codes % span + cell_min`` the ``day * 24 + hour``
    cell.  *stamps* must be non-empty.
    """
    user_index = np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)
    days, hours = split_day_hours(stamps, offset_hours)
    cells = days * HOURS + hours
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
        return encoded[keep], span, cell_min
    return _sorted_unique(encoded), span, cell_min


def segment_counts(
    stamps: "FloatArray", lengths: "IntArray", offset_hours: float = 0.0
) -> "FloatArray":
    """Vectorised Eq. 1 counts over a pre-concatenated timestamp column.

    *stamps* holds every user's timestamps back to back; *lengths* gives
    the per-user segment sizes.  Returns ``(len(lengths), 24)`` counts of
    unique active (day, hour) cells per hour -- always float64 so the rows
    feed :class:`~repro.core.batch.ProfileMatrix` without a cast.
    """
    n_users = int(lengths.size)
    if stamps.size == 0:
        return np.zeros((n_users, HOURS), dtype=float)
    unique, span, cell_min = _unique_codes(stamps, lengths, offset_hours)
    owners = unique // span
    unique_hours = (unique % span + cell_min) % HOURS
    flat = np.bincount(owners * HOURS + unique_hours, minlength=n_users * HOURS)
    return flat.reshape(n_users, HOURS).astype(float)


def segment_unique_cells(
    stamps: "FloatArray", lengths: "IntArray", offset_hours: float = 0.0
) -> "tuple[IntArray, IntArray]":
    """Per-user sorted unique ``day * 24 + hour`` cells of a segmented column.

    The deduplication half of :func:`segment_counts`, for the streaming
    bulk intake (:meth:`repro.core.streaming.StreamingGeolocator.observe_batch`),
    which needs the distinct cells themselves (to diff against each
    user's incremental record) rather than their per-hour histogram.
    Returns ``(cells, cell_lengths)``: one concatenated int64 cell column,
    ascending within each user's segment, plus the per-user segment sizes
    (``cell_lengths.sum() == cells.size``).  Both kernels share
    :func:`_unique_codes`, so they agree cell for cell.
    """
    n_users = int(lengths.size)
    if stamps.size == 0:
        return (
            np.zeros(0, dtype=np.int64),
            np.zeros(n_users, dtype=np.int64),
        )
    unique, span, cell_min = _unique_codes(stamps, lengths, offset_hours)
    owners = unique // span
    out_cells = unique - owners * span + cell_min
    cell_lengths = np.bincount(owners, minlength=n_users).astype(np.int64)
    return out_cells, cell_lengths
