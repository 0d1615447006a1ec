"""Mid-stream drift scenarios: crowds whose time zones change at day T.

The drift-robustness layer (:mod:`repro.core.drift`) needs ground-truth
scenarios to calibrate and test against.  These builders produce crowds
where the UTC shift of Fig. 6(a)'s construction
(:func:`repro.synth.forums.build_relocated_crowd`) is applied *mid
stream* instead of to whole traces, covering the three real-world drift
modes named in ROADMAP item 4:

* **relocation** -- a fraction of users moves to another time zone at
  day T (their local schedule is unchanged, so their UTC activity
  shifts by the offset delta);
* **server-offset change** -- the forum silently re-bases its server
  clock at day T, shifting *every* user's timestamps at once;
* **DST transition** -- the whole crowd's local clocks slide one hour,
  shifting everyone's UTC activity by +-1 h (deliberately small: zone
  placement is hour-quantised and the detector should *not* treat DST
  as a migration under default thresholds).

The sign convention is the one :func:`build_relocated_crowd` uses: a user
moving from base offset ``b`` to ``b + shift`` keeps the same local
hours, so their UTC timestamps move by ``-shift`` hours.

Every builder returns a :class:`DriftScenario` carrying the traces plus
the ground truth (who moved, when, from/to which offset), which is what
the acceptance experiment
(:func:`repro.analysis.streaming_experiments.run_drift_experiment`)
scores detection against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.events import ActivityTrace, TraceSet
from repro.synth.population import sample_population
from repro.synth.posting import generate_crowd
from repro.timebase.zones import get_region

__all__ = [
    "DriftScenario",
    "build_relocation_scenario",
    "build_server_offset_scenario",
    "build_dst_scenario",
]


@dataclass(frozen=True)
class DriftScenario:
    """A synthetic crowd with known mid-stream drift ground truth."""

    #: ``"relocation"``, ``"server-offset"`` or ``"dst"``.
    kind: str
    traces: TraceSet
    #: First UTC day ordinal on which the shift is in effect.
    move_day: int
    #: Offset delta in hours applied to moved users from *move_day* on.
    shift_hours: int
    #: UTC offset of the crowd before the move.
    base_offset: int
    #: Users whose timestamps were shifted (everyone, for server-offset
    #: and DST scenarios).
    moved_ids: frozenset[str]

    @property
    def new_offset(self) -> int:
        """UTC offset moved users occupy after *move_day*."""
        return self.base_offset + self.shift_hours

    def stationary_ids(self) -> frozenset[str]:
        return frozenset(self.traces.user_ids()) - self.moved_ids

    def sorted_events(self) -> "list[tuple[float, str]]":
        """(timestamp, user_id) pairs in arrival order for streaming.

        The order of ``sorted()`` on the pairs: by stamp, then by user id.
        One stable ``np.lexsort`` over the stamp column and each post's
        rank of id gives it (ids are unique, so the ranks order them as
        ``sorted()`` does).
        """
        user_ids, lengths, stamps = self.traces.columns()
        rank = np.empty(len(user_ids), dtype=np.int64)
        rank[sorted(range(len(user_ids)), key=user_ids.__getitem__)] = np.arange(
            len(user_ids)
        )
        owner = np.repeat(np.arange(len(user_ids)), lengths)
        order = np.lexsort((rank[owner], stamps))
        ids = np.asarray(user_ids, dtype=object)[owner[order]]
        return list(zip(stamps[order].tolist(), ids.tolist()))


def _shift_after(
    trace: ActivityTrace, move_day: int, shift_hours: int
) -> ActivityTrace:
    """Shift the part of *trace* on/after *move_day* by ``-shift_hours``.

    Same sign convention as :func:`build_relocated_crowd`: moving east by
    ``shift_hours`` keeps local hours fixed, so UTC timestamps decrease.
    """
    before = trace.restricted_to_days(lambda day: day < move_day)
    after = trace.restricted_to_days(lambda day: day >= move_day).shifted(
        -float(shift_hours)
    )
    return before.merged_with(after)


def _base_crowd(
    base_region: str,
    n_users: int,
    *,
    seed: int,
    start_day: int,
    n_days: int,
    posts_per_day_mean: float,
) -> "tuple[TraceSet, int, np.random.Generator]":
    rng = np.random.default_rng(seed)
    population = sample_population(
        base_region, n_users, rng, posts_per_day_mean=posts_per_day_mean
    )
    traces = generate_crowd(population, rng, start_day=start_day, n_days=n_days)
    return traces, get_region(base_region).base_offset, rng


def build_relocation_scenario(
    base_region: str = "germany",
    *,
    n_users: int = 100,
    relocated_fraction: float = 0.2,
    shift_hours: int = 6,
    move_day: int | None = None,
    start_day: int = 0,
    n_days: int = 240,
    posts_per_day_mean: float = 1.2,
    seed: int = 0,
) -> DriftScenario:
    """A crowd where *relocated_fraction* of users moves at *move_day*.

    The acceptance scenario of ROADMAP item 4 is the default shape: 20%
    of a single-region crowd relocating +6 h mid-stream.  *move_day*
    defaults to the stream midpoint.
    """
    if not 0.0 <= relocated_fraction <= 1.0:
        raise ValueError(
            f"relocated_fraction must be in [0, 1], got {relocated_fraction}"
        )
    traces, base_offset, rng = _base_crowd(
        base_region,
        n_users,
        seed=seed,
        start_day=start_day,
        n_days=n_days,
        posts_per_day_mean=posts_per_day_mean,
    )
    day = start_day + n_days // 2 if move_day is None else move_day
    user_ids = traces.user_ids()
    n_moved = int(round(relocated_fraction * len(user_ids)))
    moved = frozenset(
        rng.choice(np.asarray(user_ids, dtype=object), size=n_moved, replace=False)
    )
    shifted = TraceSet(
        _shift_after(trace, day, shift_hours) if trace.user_id in moved else trace
        for trace in traces
    )
    return DriftScenario(
        kind="relocation",
        traces=shifted,
        move_day=day,
        shift_hours=shift_hours,
        base_offset=base_offset,
        moved_ids=moved,
    )


def build_server_offset_scenario(
    base_region: str = "germany",
    *,
    n_users: int = 100,
    shift_hours: int = 3,
    move_day: int | None = None,
    start_day: int = 0,
    n_days: int = 240,
    posts_per_day_mean: float = 1.2,
    seed: int = 0,
) -> DriftScenario:
    """A forum whose server clock is re-based at *move_day*.

    Every user's timestamps shift at once -- the crowd-level signature
    (the whole :class:`~repro.core.drift.CompositionTimeline` slides by
    ``shift_hours``) is what distinguishes this from mass relocation.
    """
    traces, base_offset, _ = _base_crowd(
        base_region,
        n_users,
        seed=seed,
        start_day=start_day,
        n_days=n_days,
        posts_per_day_mean=posts_per_day_mean,
    )
    day = start_day + n_days // 2 if move_day is None else move_day
    shifted = TraceSet(_shift_after(trace, day, shift_hours) for trace in traces)
    return DriftScenario(
        kind="server-offset",
        traces=shifted,
        move_day=day,
        shift_hours=shift_hours,
        base_offset=base_offset,
        moved_ids=frozenset(shifted.user_ids()),
    )


def build_dst_scenario(
    base_region: str = "germany",
    *,
    n_users: int = 100,
    direction: int = 1,
    move_day: int | None = None,
    start_day: int = 0,
    n_days: int = 240,
    posts_per_day_mean: float = 1.2,
    seed: int = 0,
) -> DriftScenario:
    """A whole-crowd daylight-saving transition (+-1 h) at *move_day*.

    *direction* ``+1`` is spring-forward (local clocks jump ahead, UTC
    activity moves one hour earlier), ``-1`` is fall-back.  Under default
    :class:`~repro.core.drift.DriftConfig` thresholds this scenario is a
    *negative* control: a 1 h slide scores far below ``emd_threshold``
    and must not storm the migration log.
    """
    if direction not in (1, -1):
        raise ValueError(f"direction must be +1 or -1, got {direction}")
    traces, base_offset, _ = _base_crowd(
        base_region,
        n_users,
        seed=seed,
        start_day=start_day,
        n_days=n_days,
        posts_per_day_mean=posts_per_day_mean,
    )
    day = start_day + n_days // 2 if move_day is None else move_day
    shifted = TraceSet(_shift_after(trace, day, direction) for trace in traces)
    return DriftScenario(
        kind="dst",
        traces=shifted,
        move_day=day,
        shift_hours=direction,
        base_offset=base_offset,
        moved_ids=frozenset(shifted.user_ids()),
    )
