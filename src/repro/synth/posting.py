"""Generating post timestamps: the inhomogeneous posting process.

For every local civil day in the requested range a user is active with
their active-day probability (modulated on weekends); on an active day the
number of posts is Poisson with the user's rate and each post's local hour
is drawn from the user's (chronotype-shifted) diurnal curve.  Local times
are converted to UTC with the region's *effective* offset -- standard
offset plus the DST adjustment of that day -- which is exactly the
mechanism the hemisphere test of Sec. V-F later exploits.

The order of the random draws is part of the output: every committed
result rests on these streams, and ``tests/fixtures/synth/digests.json``
holds them byte for byte.  Per day, and only per day, a user draws
``random()`` for the active-day test, then ``poisson(rate)``, then one
``random(2n)`` whose first n uniforms pick the posts' hour bins (the
draws ``Generator.choice(24, n, p=pmf)`` would take) and whose last n
are their fractional hours (:func:`repro.synth.diurnal.hours_from_uniforms`).
Everything else is the same on every day and is computed once: the
user's hour CDF, and the weekend flags and effective offsets of the day
range (once per region in :func:`generate_crowd`); each user's stamps
then come from one numpy pass.  ``tests/synth_oracle.py`` keeps the
per-day loop this replaced, which drew and converted post by post.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.core.events import ActivityTrace, TraceSet
from repro.synth.diurnal import hours_from_uniforms
from repro.synth.population import UserSpec
from repro.timebase.calendar_utils import is_weekend
from repro.timebase.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR

#: Default generation window: the full simulation year 2016 (the year of
#: the Twitter grab), expressed in day ordinals.
DEFAULT_START_DAY = 0
DEFAULT_N_DAYS = 366


def active_day_draws(
    rng: np.random.Generator, probabilities: list[float], rate: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The per-day draws of a user active on day *d* with ``probabilities[d]``.

    Returns ``(days, counts, draws, fractions)``: the indices of the days
    with posts, their Poisson post counts, and per post, in day order, the
    uniform that picks its hour bin and its fractional hour -- the first
    and the last n uniforms of its day's ``random(2n)``.  An inactive day
    takes one ``random()``, an active day without posts a ``random()``
    and a ``poisson(rate)``.
    """
    random, poisson = rng.random, rng.poisson
    days: list[int] = []
    counts: list[int] = []
    blocks: list[np.ndarray] = []
    for day, probability in enumerate(probabilities):
        if random() >= probability:
            continue
        n_posts = int(poisson(rate))
        if n_posts:
            days.append(day)
            counts.append(n_posts)
            blocks.append(random(2 * n_posts))
    post_counts = np.array(counts, dtype=np.int64)
    uniforms = np.concatenate(blocks) if blocks else np.zeros(0)
    post_day = np.repeat(np.arange(post_counts.size), post_counts)
    # Post i of the column is post i - s of its day, whose block starts at
    # uniform 2 * s (s: the posts of earlier days): its bin draw sits at
    # i + s and its fraction n places further.
    picks = np.arange(post_day.size) + (np.cumsum(post_counts) - post_counts)[post_day]
    return (
        np.array(days, dtype=np.int64),
        post_counts,
        uniforms[picks],
        uniforms[picks + post_counts[post_day]],
    )


def _user_trace(
    spec: UserSpec,
    rng: np.random.Generator,
    start_day: int,
    weekend: list[bool],
    offsets: np.ndarray,
) -> ActivityTrace:
    """One user's trace over the day range whose flags and offsets are given."""
    weekday_probability = spec.active_day_probability
    weekend_probability = min(weekday_probability * spec.weekend_factor, 1.0)
    days, counts, draws, fractions = active_day_draws(
        rng,
        [weekend_probability if flag else weekday_probability for flag in weekend],
        spec.posts_per_active_day,
    )
    local_hours = hours_from_uniforms(
        spec.model.hour_cdf(spec.chronotype_shift), draws, fractions
    )
    post_days = np.repeat(days, counts)
    ordinals = start_day + post_days
    stamps = (
        ordinals * SECONDS_PER_DAY + local_hours * SECONDS_PER_HOUR
    ) - offsets[post_days] * SECONDS_PER_HOUR
    return ActivityTrace(spec.user_id, stamps)


def generate_trace(
    spec: UserSpec,
    rng: np.random.Generator,
    *,
    start_day: int = DEFAULT_START_DAY,
    n_days: int = DEFAULT_N_DAYS,
) -> ActivityTrace:
    """Simulate one user's posting history over [start_day, start_day+n_days)."""
    return next(iter(generate_crowd([spec], rng, start_day=start_day, n_days=n_days)))


def generate_crowd(
    specs: Iterable[UserSpec],
    rng: np.random.Generator,
    *,
    start_day: int = DEFAULT_START_DAY,
    n_days: int = DEFAULT_N_DAYS,
) -> TraceSet:
    """Simulate a whole crowd, one user after the other."""
    days = range(start_day, start_day + n_days)
    weekend = [is_weekend(ordinal) for ordinal in days]
    offsets: dict[str, np.ndarray] = {}

    def trace(spec: UserSpec) -> ActivityTrace:
        region_offsets = offsets.get(spec.region_key)
        if region_offsets is None:
            region_offsets = offsets[spec.region_key] = spec.region.utc_offsets(days)
        return _user_trace(spec, rng, start_day, weekend, region_offsets)

    return TraceSet(trace(spec) for spec in specs)
