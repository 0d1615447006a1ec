"""Seeded ground-truth input generators for the benchmark.

Everything the program under test receives is made here from the
workload seed: forum-sized crowds for ``census``, a columnar store for
``store_replay`` and hourly polls of a drift scenario for
``monitor_drift``.  The truth behind
each input (every user's zone, every bot flag, every crowd's zone mix)
stays on the benchmark's side and is only used to score accuracy.

Input *shapes* are stratified rather than drawn: crowd sizes, crowd zone
mixes, bot shares, store regions and the monitor's event budget are
fixed, and the seed decides who gets what, who moves, and every
timestamp.  Two seeds therefore ask the program for the same amount
of work, which keeps run-to-run spread down to what the program does.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

SECONDS_PER_DAY = 86_400.0
SECONDS_PER_HOUR = 3_600.0

#: Local-time diurnal activity used to draw posting hours: a night trough
#: around 04-05h, a morning climb and an evening peak near 21h -- the shape
#: the paper's generic profile has.  It lives here, not in the program, so
#: a change to the program's reference profiles does not change the inputs.
LOCAL_DIURNAL = np.array(
    [
        3.9, 2.6, 1.8, 1.3, 1.1, 1.2, 1.5, 2.1, 2.9, 3.5, 4.1, 4.5,
        4.7, 4.6, 4.8, 5.0, 5.4, 5.8, 6.2, 6.7, 7.3, 7.7, 7.1, 5.6,
    ]
)
LOCAL_DIURNAL = LOCAL_DIURNAL / LOCAL_DIURNAL.sum()

#: Spread (hours, normal sd) of each human user's personal schedule
#: around the local curve -- early birds and night owls.
CHRONOTYPE_SD_H = 0.75


def circular_gap(a: float, b: float) -> float:
    """Hours between two UTC offsets on the 24 h circle (the +-12 h seam)."""
    return abs(((a - b + 12.0) % 24.0) - 12.0)


def user_stamps(
    rng: np.random.Generator,
    lengths: np.ndarray,
    zones: np.ndarray,
    bots: np.ndarray,
    n_days: int,
) -> np.ndarray:
    """UTC timestamps for a block of users, concatenated user by user.

    Humans post on random days at local hours drawn from
    :data:`LOCAL_DIURNAL`, shifted by a personal chronotype; bots post at
    uniformly random hours (the flat profiles polishing must remove).  Each
    user's segment is returned sorted, as a scraped history would be.
    """
    total = int(lengths.sum())
    owner = np.repeat(np.arange(lengths.size), lengths)
    days = rng.integers(0, n_days, size=total).astype(np.float64)
    human_hours = rng.choice(24, size=total, p=LOCAL_DIURNAL).astype(np.float64)
    bot_hours = rng.integers(0, 24, size=total).astype(np.float64)
    chronotype = rng.normal(0.0, CHRONOTYPE_SD_H, size=lengths.size)
    is_bot = bots[owner]
    hours = np.where(is_bot, bot_hours, human_hours + chronotype[owner])
    hours += rng.random(total)
    local = days * SECONDS_PER_DAY + hours * SECONDS_PER_HOUR
    utc = local - zones[owner].astype(np.float64) * SECONDS_PER_HOUR
    # One sort orders every user's segment: the owner index dominates the key.
    span = float(n_days + 4) * SECONDS_PER_DAY
    key = owner * span + (utc + SECONDS_PER_DAY)
    return np.sort(key) - owner * span - SECONDS_PER_DAY


# -- census: many forum-sized crowds -------------------------------------------


@dataclass(frozen=True)
class CensusSizes:
    n_crowds: int = 100
    min_users: int = 200
    max_users: int = 2_000
    min_posts: int = 40
    max_posts: int = 80
    n_days: int = 240


@dataclass(frozen=True)
class Crowd:
    """One generated crowd: the program's input plus its hidden truth."""

    name: str
    traces: object  # repro.core.events.TraceSet
    zones: tuple[int, ...]
    n_posts: int


#: Crowd kinds and their zones, in the fixed proportions every seed gets
#: (out of ten): single-zone crowds, two-zone crowds, and two-zone crowds
#: whose humps sit either side of the +-12 h seam (4-6 h apart on the
#: circle).  The seed decides which crowd gets which kind and zones.
_CROWD_ZONES = (
    ((-6,), (-3,), (0,), (2,), (5,)),
    ((-5, 1), (-3, 5), (0, 7)),
    ((10, -10), (9, -9)),
)


def _crowd_specs(n: int) -> list[tuple[int, ...]]:
    kinds = [zones for group in _CROWD_ZONES for zones in group]
    return [kinds[i % len(kinds)] for i in range(n)]


def build_census(seed: int, sizes: CensusSizes = CensusSizes()) -> list[Crowd]:
    """``sizes.n_crowds`` crowds of stratified size, kind and bot share."""
    from repro.core.events import ActivityTrace, TraceSet

    rng = np.random.default_rng([seed, 1])
    n = sizes.n_crowds
    user_counts = rng.permutation(
        np.linspace(sizes.min_users, sizes.max_users, n).round().astype(int)
    )
    specs = _crowd_specs(n)
    spec_order = rng.permutation(n)
    bot_shares = rng.permutation(np.linspace(0.05, 0.10, n))
    crowds = []
    for index in range(n):
        n_users = int(user_counts[index])
        zones = specs[int(spec_order[index])]
        weights = [1.0] if len(zones) == 1 else [0.6, 0.4]
        n_bots = int(round(bot_shares[index] * n_users))
        bots = np.zeros(n_users, dtype=bool)
        bots[:n_bots] = True
        user_zones = np.asarray(zones)[
            rng.choice(len(zones), size=n_users, p=weights)
        ]
        order = rng.permutation(n_users)
        bots, user_zones = bots[order], user_zones[order]
        lengths = rng.integers(sizes.min_posts, sizes.max_posts + 1, size=n_users)
        stamps = user_stamps(rng, lengths, user_zones, bots, sizes.n_days)
        bounds = np.concatenate([[0], np.cumsum(lengths)])
        traces = TraceSet(
            ActivityTrace(f"c{index}u{user}", stamps[bounds[user] : bounds[user + 1]])
            for user in range(n_users)
        )
        crowds.append(
            Crowd(
                name=f"crowd{index:03d}",
                traces=traces,
                zones=tuple(zones),
                n_posts=int(bounds[-1]),
            )
        )
    return crowds


# -- columnar stores: one big crowd ---------------------------------------------


@dataclass(frozen=True)
class StoreSizes:
    #: Above ``repro.core.batch.PARALLEL_USER_THRESHOLD``, so the store's
    #: profile build takes the shared-memory pool path.
    n_users: int = 60_000
    min_posts: int = 30
    max_posts: int = 40
    bot_share: float = 0.05
    n_days: int = 180
    chunk_users: int = 32_768


@dataclass(frozen=True)
class StoreTruth:
    """Per-user truth of a generated store, in store row order."""

    user_ids: list[str]
    zones: np.ndarray
    bots: np.ndarray


#: The store crowd's regions (UTC offsets) and their shares.
_STORE_REGIONS = (1, -5, 8)
_STORE_SHARES = (0.5, 0.3, 0.2)


def write_store(seed: int, path: Path, sizes: StoreSizes = StoreSizes()) -> StoreTruth:
    """Generate a store crowd and stream it into ``TraceStore.write_columns``."""
    from repro.datasets.store import TraceStore

    rng = np.random.default_rng([seed, 2])
    n = sizes.n_users
    zones = np.asarray(_STORE_REGIONS)[rng.choice(len(_STORE_REGIONS), size=n, p=_STORE_SHARES)]
    bots = rng.random(n) < sizes.bot_share
    lengths = rng.integers(sizes.min_posts, sizes.max_posts + 1, size=n)
    user_ids = [f"u{row:07d}" for row in range(n)]

    def chunks():
        for lo in range(0, n, sizes.chunk_users):
            hi = min(lo + sizes.chunk_users, n)
            yield (
                user_ids[lo:hi],
                lengths[lo:hi],
                user_stamps(rng, lengths[lo:hi], zones[lo:hi], bots[lo:hi], sizes.n_days),
            )

    TraceStore.write_columns(chunks(), path)
    return StoreTruth(user_ids, zones, bots)


# -- monitor: hourly polls of a relocation scenario -----------------------------


@dataclass(frozen=True)
class MonitorSizes:
    #: Users in the generated scenario; the stream keeps users, in the
    #: scenario's order, until it holds ``n_events`` posts (about 310).
    n_users: int = 500
    n_events: int = 37_000
    n_days: int = 100
    relocated_fraction: float = 0.2
    shift_hours: int = 6
    checkpoint_every_days: int = 30


@dataclass(frozen=True)
class MonitorStream:
    """A drift scenario cut into hourly polls, grouped by stream day."""

    days: list  # list[list[list[PostEvent]]]: day -> polls -> events
    true_zone: dict[str, int]


def build_monitor_stream(seed: int, sizes: MonitorSizes = MonitorSizes()) -> MonitorStream:
    """``build_relocation_scenario`` replayed as a poller would see it.

    Per-user activity is log-normal, so a crowd's post count swings by
    several percent from seed to seed; cutting the crowd at a fixed event
    budget keeps every seed's stream the same length.
    """
    from repro.core.events import PostEvent
    from repro.synth.drift import build_relocation_scenario

    scenario = build_relocation_scenario(
        n_users=sizes.n_users,
        relocated_fraction=sizes.relocated_fraction,
        shift_hours=sizes.shift_hours,
        n_days=sizes.n_days,
        seed=seed,
    )
    kept: set[str] = set()
    total = 0
    for trace in scenario.traces:
        if total >= sizes.n_events:
            break
        kept.add(trace.user_id)
        total += len(trace)
    if total < sizes.n_events:
        raise ValueError(f"scenario holds {total} posts, fewer than {sizes.n_events}")
    events = [event for event in scenario.sorted_events() if event[1] in kept]
    days: list = []
    current_day = current_hour = None
    for timestamp, user_id in events:
        hour = int(timestamp // SECONDS_PER_HOUR)
        day = hour // 24
        if day != current_day:
            days.append([])
            current_day, current_hour = day, None
        if hour != current_hour:
            days[-1].append([])
            current_hour = hour
        days[-1][-1].append(PostEvent(timestamp, user_id))
    true_zone = {
        user_id: scenario.new_offset if user_id in scenario.moved_ids else scenario.base_offset
        for user_id in kept
    }
    return MonitorStream(days=days, true_zone=true_zone)
