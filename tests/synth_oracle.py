"""Per-day and per-post oracles of the synthetic data substrate.

``repro.synth`` draws each user's random numbers day by day but turns
them into stamps in one numpy pass, with the user's hour CDF, the
weekend flags and the day range's effective offsets computed once
(see the :mod:`repro.synth.posting` docstring).  The loops here are the
generators that did all of it day by day and post by post: the pmf and
``Generator.choice`` on every active day, the DST rule walking the
calendar on every call, one stamp at a time.  They wrote the frozen
digests in ``fixtures/synth/digests.json``, and ``test_synth_oracle.py``
holds the production generators to them stamp for stamp and draw for
draw (``rng.bit_generator.state`` after the call).

The other oracles are the per-post loop of
:meth:`~repro.core.events.ActivityTrace.restricted_to_days` and the
``sorted()`` of :meth:`~repro.synth.drift.DriftScenario.sorted_events`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

import numpy as np

from repro.core.events import ActivityTrace, TraceSet
from repro.core.profiles import HOURS
from repro.synth.diurnal import CANONICAL, DiurnalModel
from repro.synth.drift import DriftScenario
from repro.synth.population import UserSpec
from repro.timebase.calendar_utils import is_weekend
from repro.timebase.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR, ordinal_to_civil
from repro.timebase.dst import DstObservance, DstRule
from repro.timebase.zones import Region


def is_dst_walk(rule: DstRule, ordinal: int) -> bool:
    """``DstRule.is_dst`` by the calendar walk: the year, then both Sundays."""
    if rule.observance is DstObservance.NONE:
        return False
    year = ordinal_to_civil(ordinal).year
    if rule.observance is DstObservance.NORTHERN:
        return rule.start_ordinal(year) <= ordinal < rule.end_ordinal(year)
    return ordinal >= rule.start_ordinal(year) or ordinal < rule.end_ordinal(year)


def utc_offset_walk(region: Region, ordinal: int) -> int:
    """``Region.utc_offset_at`` over :func:`is_dst_walk`."""
    rule = region.dst_rule
    return region.base_offset + (rule.shift_hours if is_dst_walk(rule, ordinal) else 0)


def sample_hours_choice(
    model: DiurnalModel,
    n: int,
    rng: np.random.Generator,
    chronotype_shift: float = 0.0,
) -> np.ndarray:
    """``DiurnalModel.sample_hours`` by ``Generator.choice``, then ``random(n)``."""
    pmf = model.pmf(chronotype_shift)
    hours = rng.choice(HOURS, size=n, p=pmf)
    return hours + rng.random(n)


def generate_trace_loop(
    spec: UserSpec,
    rng: np.random.Generator,
    *,
    start_day: int = 0,
    n_days: int = 366,
) -> ActivityTrace:
    """``repro.synth.generate_trace``, day by day and post by post."""
    region = spec.region
    timestamps: list[float] = []
    for ordinal in range(start_day, start_day + n_days):
        probability = spec.active_day_probability
        if is_weekend(ordinal):
            probability = min(probability * spec.weekend_factor, 1.0)
        if rng.random() >= probability:
            continue
        n_posts = int(rng.poisson(spec.posts_per_active_day))
        if n_posts == 0:
            continue
        offset = utc_offset_walk(region, ordinal)
        local_hours = sample_hours_choice(
            spec.model, n_posts, rng, chronotype_shift=spec.chronotype_shift
        )
        for local_hour in local_hours:
            utc_seconds = (
                ordinal * SECONDS_PER_DAY
                + float(local_hour) * SECONDS_PER_HOUR
                - offset * SECONDS_PER_HOUR
            )
            timestamps.append(utc_seconds)
    return ActivityTrace(spec.user_id, timestamps)


def generate_crowd_loop(
    specs: Iterable[UserSpec],
    rng: np.random.Generator,
    *,
    start_day: int = 0,
    n_days: int = 366,
) -> TraceSet:
    """``repro.synth.generate_crowd`` over :func:`generate_trace_loop`."""
    return TraceSet(
        generate_trace_loop(spec, rng, start_day=start_day, n_days=n_days)
        for spec in specs
    )


def generate_bot_trace_loop(
    user_id: str,
    rng: np.random.Generator,
    *,
    start_day: int = 0,
    n_days: int = 366,
    posts_per_day: float = 2.0,
) -> ActivityTrace:
    """``repro.synth.generate_bot_trace``: one ``random()`` a post."""
    timestamps: list[float] = []
    for ordinal in range(start_day, start_day + n_days):
        for _ in range(int(rng.poisson(posts_per_day))):
            timestamps.append(
                ordinal * SECONDS_PER_DAY + rng.random() * SECONDS_PER_DAY
            )
    return ActivityTrace(user_id, timestamps)


def generate_shift_worker_trace_loop(
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
    """``repro.synth.generate_shift_worker_trace``, day by day."""
    phases = (0.0, 8.0, 16.0)
    timestamps: list[float] = []
    for ordinal in range(start_day, start_day + n_days):
        if rng.random() >= active_day_probability:
            continue
        phase = phases[((ordinal - start_day) // rotation_days) % len(phases)]
        n_posts = int(rng.poisson(posts_per_active_day))
        if n_posts == 0:
            continue
        hours = sample_hours_choice(model, n_posts, rng, chronotype_shift=phase)
        for hour in hours:
            timestamps.append(
                ordinal * SECONDS_PER_DAY
                + (float(hour) - utc_offset) * SECONDS_PER_HOUR
            )
    return ActivityTrace(user_id, timestamps)


def restricted_to_days_loop(
    trace: ActivityTrace, predicate: Callable[[int], bool]
) -> ActivityTrace:
    """``ActivityTrace.restricted_to_days`` asking *predicate* once a post."""
    if trace.is_empty():
        return ActivityTrace(trace.user_id)
    days = (trace.timestamps // 86400.0).astype(int)
    keep = np.fromiter(
        (predicate(int(day)) for day in days), dtype=bool, count=days.size
    )
    return ActivityTrace(trace.user_id, trace.timestamps[keep])


def sorted_events_loop(scenario: DriftScenario) -> list[tuple[float, str]]:
    """``DriftScenario.sorted_events`` as ``sorted()`` of the pairs."""
    return sorted(
        (float(timestamp), trace.user_id)
        for trace in scenario.traces
        for timestamp in trace.timestamps
    )
