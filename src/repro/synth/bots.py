"""Flat-profile users: bots and shift workers (paper Sec. IV-C, Fig. 7).

The paper's polishing step removes users whose activity is spread almost
uniformly over the day -- "typically bots; rarely, they can be shift
workers".  This module generates both kinds so the filter has something
real to catch:

* a *bot* posts at uniformly random times around the clock,
* a *shift worker* follows the normal diurnal curve, but the curve's phase
  rotates through the day as their shift schedule rotates week over week,
  which flattens the long-run profile.
"""

from __future__ import annotations

import numpy as np

from repro.core.events import ActivityTrace
from repro.synth.diurnal import CANONICAL, DiurnalModel, hours_from_uniforms
from repro.synth.posting import active_day_draws
from repro.timebase.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR

#: A shift worker's rhythm phases, in hours, one per rotation period.
_PHASES = (0.0, 8.0, 16.0)


def generate_bot_trace(
    user_id: str,
    rng: np.random.Generator,
    *,
    start_day: int = 0,
    n_days: int = 366,
    posts_per_day: float = 2.0,
) -> ActivityTrace:
    """A bot: Poisson posts at uniform times of day, every day.

    Per day one ``poisson(posts_per_day)`` and then one ``random(n)``,
    the draws of n scalar ``random()`` calls.
    """
    random, poisson = rng.random, rng.poisson
    days = range(start_day, start_day + n_days)
    counts: list[int] = []
    blocks: list[np.ndarray] = []
    for _ in days:
        n_posts = int(poisson(posts_per_day))
        counts.append(n_posts)
        if n_posts:
            blocks.append(random(n_posts))
    ordinals = np.repeat(np.asarray(days, dtype=np.int64), counts)
    uniforms = np.concatenate(blocks) if blocks else np.zeros(0)
    return ActivityTrace(
        user_id, ordinals * SECONDS_PER_DAY + uniforms * SECONDS_PER_DAY
    )


def generate_shift_worker_trace(
    user_id: str,
    rng: np.random.Generator,
    *,
    start_day: int = 0,
    n_days: int = 366,
    posts_per_active_day: float = 1.5,
    active_day_probability: float = 0.8,
    rotation_days: int = 7,
    model: DiurnalModel = CANONICAL,
    utc_offset: int = 0,
) -> ActivityTrace:
    """A rotating-shift worker: normal rhythm whose phase cycles 0/8/16 h.

    The draws are a human poster's (:func:`~repro.synth.posting.active_day_draws`
    at a constant active-day probability); each post's bin is searched in
    the CDF of its day's phase.
    """
    if rotation_days == 0:
        raise ValueError("rotation_days must be nonzero")
    days, counts, draws, fractions = active_day_draws(
        rng, [active_day_probability] * n_days, posts_per_active_day
    )
    post_phase = np.repeat((days // rotation_days) % len(_PHASES), counts)
    hours = np.empty(draws.size)
    for index, phase in enumerate(_PHASES):
        on = post_phase == index
        if on.any():
            hours[on] = hours_from_uniforms(model.hour_cdf(phase), draws[on], fractions[on])
    ordinals = start_day + np.repeat(days, counts)
    return ActivityTrace(
        user_id, ordinals * SECONDS_PER_DAY + (hours - utc_offset) * SECONDS_PER_HOUR
    )
