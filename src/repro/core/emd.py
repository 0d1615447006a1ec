"""Earth Mover's Distance (1-D Wasserstein metric) between profiles.

The paper (Sec. IV-A) matches user profiles to time-zone references with
the Wasserstein metric / EMD [Hitchcock 1941]: "the least amount of work to
move earth around so that the first distribution matches the second".

For distributions on the line with unit-width bins the EMD has the closed
form ``sum_i |CDF_p(i) - CDF_q(i)|``.  Hours of the day, however, live on a
circle; for circular distributions the optimal transport distance equals
``min_mu sum_i |D_i - mu|`` where ``D`` is the cumulative difference -- the
minimiser being the median of ``D`` (Werman et al.).  Both variants are
implemented; the paper's experiments use the linear form, and the circular
form is evaluated in our ablations.

Crowds are measured in bulk by :func:`distance_matrix`.  Its linear, l1
and l2 metrics share one column-major kernel, :func:`_pair_sums`: it
reduces every (reference, profile) pair with whole-column adds laid out
in the order ``np.sum`` uses on 24 contiguous values, so each distance
has the bits a row-wise ``np.sum`` over that pair's 24 terms gives it,
however the crowd is blocked, sharded or batched.  The kernel computes
in the dtype of the table it fills: :func:`distance_matrix` fills
float64 tables, and :func:`repro.core.placement.classify_profiles` also
fills a float32 linear table as a screen, re-deciding near-ties from
float64 rows of the same kernel.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.profiles import HOURS, Profile
from repro.core.types import AnyArray, FloatArray

if TYPE_CHECKING:
    from repro.core.types import ProfileLike

#: Byte budget for the circular metric's per-block temporary: it still
#: materialises a ``(rows, n_q, 24)`` broadcast (it needs a per-pair
#: median), so its block row count adapts to ``n_q`` to stay within this
#: budget regardless of how many references are passed.
_BLOCK_BYTES = 16 * 1024 * 1024

#: Clamp bounds for the circular block row count: small enough blocks cost
#: loop overhead, huge ones spill the cache even under the byte budget.
_MIN_BLOCK_ROWS = 128
_MAX_BLOCK_ROWS = 16_384

#: (reference, profile) pairs in one float64 block of :func:`_pair_sums`;
#: a float32 block takes twice as many.  A block takes as many references
#: as fit over all rows -- every reference for the one-row drift checks
#: and the ~120-row snapshot refreshes -- and shrinks to one reference
#: over this many rows for store-sized crowds, so its ``(24, refs, rows)``
#: scratch stays at 768 KiB, inside L2, in either dtype.
_BLOCK_PAIRS = 4096


def _block_rows(n_q: int) -> int:
    """Rows per block so the block temporary stays within the byte budget."""
    per_row_bytes = max(1, n_q) * HOURS * np.dtype(np.float64).itemsize
    return int(
        min(_MAX_BLOCK_ROWS, max(_MIN_BLOCK_ROWS, _BLOCK_BYTES // per_row_bytes))
    )


def _as_mass(dist: "Profile | FloatArray") -> FloatArray:
    if isinstance(dist, Profile):
        return dist.mass
    values = np.asarray(dist, dtype=float)
    total = values.sum()
    if total <= 0:
        raise ValueError("distribution has zero mass")
    return values / total


def emd_linear(p: "Profile | FloatArray", q: "Profile | FloatArray") -> float:
    """1-D EMD treating the 24 hours as points on a line (paper's choice)."""
    diff = _as_mass(p) - _as_mass(q)
    return float(np.abs(np.cumsum(diff)).sum())


def emd_circular(p: "Profile | FloatArray", q: "Profile | FloatArray") -> float:
    """1-D EMD on the circle of hours (mass may wrap midnight)."""
    cumulative = np.cumsum(_as_mass(p) - _as_mass(q))
    return float(np.abs(cumulative - np.median(cumulative)).sum())


METRICS = {
    "linear": emd_linear,
    "circular": emd_circular,
}


def l1_distance(p: "Profile | FloatArray", q: "Profile | FloatArray") -> float:
    """Total L1 distance between the two mass vectors (ablation baseline)."""
    return float(np.abs(_as_mass(p) - _as_mass(q)).sum())


def l2_distance(p: "Profile | FloatArray", q: "Profile | FloatArray") -> float:
    """Euclidean distance between the two mass vectors (ablation baseline)."""
    return float(np.linalg.norm(_as_mass(p) - _as_mass(q)))


ALL_DISTANCES = {
    "linear": emd_linear,
    "circular": emd_circular,
    "l1": l1_distance,
    "l2": l2_distance,
}


def as_profile_matrix(profiles: ProfileLike) -> FloatArray:
    """Coerce any profile collection to a normalised ``(N, 24)`` array.

    Accepts a list of :class:`Profile`, a raw array (rows are normalised),
    a :class:`repro.core.batch.ProfileMatrix` (``.matrix`` attribute) or a
    :class:`repro.core.reference.ReferenceProfiles` (``.stacked()``).
    """
    if isinstance(profiles, np.ndarray):
        values = np.asarray(profiles, dtype=float)
        if values.ndim == 1:
            values = values[None, :]
        if values.ndim != 2 or values.shape[1] != HOURS:
            raise ValueError(f"expected (N, {HOURS}) profiles, got {values.shape}")
        totals = values.sum(axis=1, keepdims=True)
        if np.any(totals <= 0):
            raise ValueError("distribution has zero mass")
        return values / totals
    matrix = getattr(profiles, "matrix", None)
    if isinstance(matrix, np.ndarray):
        return matrix
    stacked = getattr(profiles, "stacked", None)
    if callable(stacked):
        return stacked()
    rows = [_as_mass(profile) for profile in profiles]
    if not rows:
        return np.zeros((0, HOURS), dtype=float)
    return np.vstack(rows)


def _cumulative_of(profiles: ProfileLike, stack: FloatArray) -> FloatArray:
    """Cumulative sums of a profile collection, reusing caches when offered.

    ``ProfileMatrix`` and ``ReferenceProfiles`` both precompute their CDFs
    (``.cumulative()``); anything else is cumsum-ed on the spot.
    """
    cumulative = getattr(profiles, "cumulative", None)
    if callable(cumulative):
        return cumulative()
    return np.cumsum(stack, axis=1)


def _pair_sums(
    p: FloatArray, q: FloatArray, out: AnyArray, term: np.ufunc
) -> None:
    """``out[j, i] = term(p[i] - q[j]).sum()``, column-major, bit for bit.

    Serves the linear EMD (inputs are CDFs, *term* ``np.absolute``), the
    L1 metric (masses, ``np.absolute``) and the squared L2 sum (masses,
    ``np.square``; the caller takes the root).  Each block lays its rows
    out as ``(24, rows)`` columns and reduces every (reference, row) pair
    with whole-column adds, in the order ``np.sum`` uses on 24 contiguous
    values -- eight partial sums ``s[k] = a[k] + a[k+8] + a[k+16]``, then
    ``((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7))``, the eight-accumulator
    tree of numpy's pairwise summation -- so every distance keeps the
    exact bits a row-wise ``np.sum`` gives it.  *out* is the
    reference-major ``(n_q, n_p)`` table; its dtype is the one the
    kernel computes in, *p* and *q* being rounded to it first.
    """
    n_q, n_p = out.shape
    pairs = _BLOCK_PAIRS * 8 // out.itemsize
    refs = max(1, min(n_q, pairs // n_p))
    rows = max(1, min(n_p, pairs // refs))
    q_columns = q.T.astype(out.dtype)[:, :, None]
    columns = np.empty((HOURS, 1, rows), dtype=out.dtype)
    terms = np.empty((HOURS, refs, rows), dtype=out.dtype)
    for start in range(0, n_p, rows):
        stop = min(start + rows, n_p)
        block = columns[:, :, : stop - start]
        np.copyto(block[:, 0], p[start:stop].T)
        for first in range(0, n_q, refs):
            last = min(first + refs, n_q)
            values = terms[:, : last - first, : stop - start]
            np.subtract(block, q_columns[:, first:last], out=values)
            term(values, out=values)
            # Terms 8-23 are spent once folded into the first eight, so
            # the tree's upper levels reuse their rows as scratch.
            eight, four, two = values[:8], values[8:12], values[12:14]
            np.add(eight, values[8:16], out=eight)
            np.add(eight, values[16:], out=eight)
            np.add(eight[0::2], eight[1::2], out=four)
            np.add(four[0::2], four[1::2], out=two)
            np.add(two[0], two[1], out=out[first:last, start:stop])


def _circular_blocked(p: FloatArray, q: FloatArray, out: FloatArray) -> None:
    """Circular EMD: needs a per-pair median, so it keeps the broadcast.

    The ``(rows, n_q, 24)`` temporary is unavoidable here (the median is a
    selection over the full 24-vector); the adaptive row count keeps it
    under :data:`_BLOCK_BYTES`.
    """
    n_p, n_q = out.shape
    rows = _block_rows(n_q)
    q_right = q[None, :, :]
    for start in range(0, n_p, rows):
        stop = min(start + rows, n_p)
        block = p[start:stop, None, :] - q_right
        median = np.median(block, axis=2, keepdims=True)
        out[start:stop] = np.abs(block - median).sum(axis=2)


def distance_matrix(
    profiles: ProfileLike,
    references: ProfileLike,
    metric: str = "linear",
) -> FloatArray:
    """Pairwise distances, shape (len(profiles), len(references)).

    Fully vectorised for all four metrics; *profiles* and *references* may
    each be a list of :class:`Profile`, an ``(N, 24)`` array, a
    ``ProfileMatrix`` or ``ReferenceProfiles`` (whose cached CDFs are
    reused for the EMD variants).  The kernels fill a reference-major
    ``(len(references), len(profiles))`` table and the result is its
    transpose, so ``.T`` of it is that C-contiguous table again (what
    :func:`repro.core.placement.classify_profiles` reduces over).
    Linear/l1/l2 run through :func:`_pair_sums` in blocks of at most
    :data:`_BLOCK_PAIRS` pairs, never materialising the pairwise
    broadcast; the circular metric keeps a broadcast bounded by
    :data:`_BLOCK_BYTES`.  Results are independent of the block shape,
    bit for bit -- each output element is a reduction over one
    profile/reference pair only, which is what makes the sharded engine
    (:mod:`repro.core.shard`) exactly mergeable.
    """
    if metric not in ALL_DISTANCES:
        raise ValueError(
            f"unknown metric {metric!r}; options: {sorted(ALL_DISTANCES)}"
        )
    p_stack = as_profile_matrix(profiles)
    q_stack = as_profile_matrix(references)
    n_p, n_q = p_stack.shape[0], q_stack.shape[0]
    out = np.empty((n_q, n_p), dtype=float)
    if n_p == 0 or n_q == 0:
        return out.T
    if metric in ("linear", "circular"):
        p_work = _cumulative_of(profiles, p_stack)
        q_work = _cumulative_of(references, q_stack)
    else:
        p_work = p_stack
        q_work = q_stack
    if metric == "circular":
        _circular_blocked(p_work, q_work, out.T)
    elif metric == "l2":
        _pair_sums(p_work, q_work, out, np.square)
        np.sqrt(out, out=out)
    else:  # linear and l1 differ only in what they feed the kernel
        _pair_sums(p_work, q_work, out, np.absolute)
    return out.T
