"""The synthetic Twitter dataset (stand-in for the 2016 live-stream grab).

The paper built its ground-truth region profiles from an archived 2%
Twitter stream with user-declared hometowns (its Table I).  That dataset
is not redistributable, so we synthesise an equivalent: for every Table I
region we generate the same number of active users (scaled down by a
*scale* factor for test-speed), each posting over the 2016 simulation year
per the behavioural model in :mod:`repro.synth.population`.

A small fraction of bots is mixed in so the polishing step (Sec. IV-C) has
realistic work to do.
"""

from __future__ import annotations

import numpy as np

from repro.core.events import TraceSet
from repro.datasets.traces import LabeledDataset
from repro.synth.bots import generate_bot_trace
from repro.synth.population import sample_population
from repro.synth.posting import generate_crowd
from repro.timebase.zones import TABLE1_KEYS, get_region

#: Floor on per-region user counts after scaling, so tiny regions
#: (Finland: 73 users) stay represented at small scales.
_MIN_USERS = 8


def scaled_user_count(region_key: str, scale: float) -> int:
    """Table I count scaled by *scale*, floored at a usable minimum."""
    full = get_region(region_key).twitter_active_users
    return max(int(round(full * scale)), _MIN_USERS)


def build_twitter_dataset(
    *,
    seed: int = 2016,
    scale: float = 0.02,
    n_days: int = 366,
    start_day: int = 0,
    bot_fraction: float = 0.03,
    regions: tuple[str, ...] = TABLE1_KEYS,
) -> LabeledDataset:
    """Generate the synthetic Table I dataset.

    ``scale=1.0`` reproduces the paper's exact user counts (~23k users,
    about 8 million posts: about 8 s on a 2-core host); the default 2%
    generates in a fraction of a second while leaving every region with
    enough users for stable placement distributions.
    """
    rng = np.random.default_rng(seed)
    crowds: dict[str, TraceSet] = {}
    for region_key in regions:
        n_users = scaled_user_count(region_key, scale)
        specs = sample_population(region_key, n_users, rng)
        traces = generate_crowd(specs, rng, start_day=start_day, n_days=n_days)
        n_bots = int(round(n_users * bot_fraction))
        for bot_index in range(n_bots):
            traces.add(
                generate_bot_trace(
                    f"{region_key}_bot_{bot_index:03d}",
                    rng,
                    start_day=start_day,
                    n_days=n_days,
                )
            )
        crowds[region_key] = traces
    return LabeledDataset(crowds)


def build_region_crowd(
    region_key: str,
    n_users: int,
    *,
    seed: int = 0,
    n_days: int = 366,
    start_day: int = 0,
    posts_per_day_mean: float = 1.2,
) -> TraceSet:
    """One region's crowd, for single-country experiments (Figs. 3-5)."""
    rng = np.random.default_rng(seed)
    specs = sample_population(
        region_key, n_users, rng, posts_per_day_mean=posts_per_day_mean
    )
    return generate_crowd(specs, rng, start_day=start_day, n_days=n_days)
