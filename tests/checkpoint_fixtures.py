"""The frozen streaming-checkpoint fixtures and the script that wrote them.

Usage::

    PYTHONPATH=src python tests/checkpoint_fixtures.py OUTDIR

A small drift-on campaign (a relocation scenario fed event by event,
one snapshot per stream day) is saved three ways: a version-2 JSON
checkpoint, a version-2 ``.npz`` checkpoint and a version-1 JSON
checkpoint (the same document reduced to the pre-drift schema).  Each
file is loaded back (the version-1 file also with a drift config), and
each ``state_dict()`` is written as ``<name>.state.json`` (``json.dumps``
with default arguments) and each snapshot into ``snapshots.json``.

The files committed under ``tests/fixtures/streaming/`` were written by
the engine that still restored JSON checkpoints user by user, and
``TestFrozenStreamingCheckpoints`` in ``tests/test_reliability_checkpoints.py``
holds today's codec to them byte for byte.  Do not regenerate them to
make that test pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

from repro.core.drift import DriftConfig
from repro.core.streaming import (
    STREAM_CHECKPOINT_KIND,
    StreamingGeolocator,
    StreamSnapshot,
)
from repro.reliability.checkpoint import write_checkpoint
from repro.reliability.clocks import frozen_wall_clock
from repro.synth.drift import build_relocation_scenario

#: Where the committed fixtures live.
FIXTURE_DIR = Path(__file__).parent / "fixtures" / "streaming"

#: Migration events stamp ``wall_time`` through the wall-clock seam.
FROZEN_WALL = 1.7e9

#: Small thresholds, so a few weeks of a dozen users truncate a record.
FIXTURE_DRIFT = DriftConfig(
    window_days=12,
    check_interval_days=2,
    min_window_cells=4,
    min_reestimate_cells=6,
    min_history_cells=8,
)

#: Rendering name -> (checkpoint file, ``drift`` passed to the loader).
#: A version-1 file loads with drift off unless a config is passed, which
#: is where its missing confidence fields take their defaults.
RENDERINGS: dict[str, tuple[str, DriftConfig | None]] = {
    "v1": ("v1.json", None),
    "v1-drift": ("v1.json", FIXTURE_DRIFT),
    "v2-json": ("v2.json", None),
    "v2-npz": ("v2.npz", None),
}

_V2_USER_FIELDS = ("record_version", "anchor_day", "confidence", "confidence_day")
_V2_FIELDS = ("stream_day", "drift", "timeline")


def build_campaign() -> StreamingGeolocator:
    """The drift-on engine every fixture is saved from."""
    scenario = build_relocation_scenario(
        n_users=12, n_days=48, posts_per_day_mean=1.5, seed=3
    )
    engine = StreamingGeolocator(
        min_posts=20, min_users_for_verdict=3, drift=FIXTURE_DRIFT
    )
    day = None
    with frozen_wall_clock(FROZEN_WALL):
        for timestamp, user_id in scenario.sorted_events():
            if day is not None and int(timestamp // 86400) != day:
                engine.snapshot()
            day = int(timestamp // 86400)
            engine.observe(user_id, timestamp)
        engine.snapshot()
    return engine


def snapshot_record(snapshot: StreamSnapshot) -> dict[str, Any]:
    """Every field of *snapshot* as plain JSON values."""
    mixture = snapshot.mixture
    return {
        "n_events_seen": snapshot.n_events_seen,
        "n_users_seen": snapshot.n_users_seen,
        "n_users_active": snapshot.n_users_active,
        "placement": (
            None
            if snapshot.placement is None
            else [list(snapshot.placement.fractions), snapshot.placement.n_users]
        ),
        "mixture": (
            None
            if mixture is None
            else {
                "components": [
                    [c.mean, c.sigma, c.weight] for c in mixture.components
                ],
                "log_likelihood": mixture.log_likelihood,
                "bic": mixture.bic,
                "n_effective": mixture.n_effective,
                "converged": mixture.converged,
            }
        ),
        "confidence": (
            None if snapshot.confidence is None else snapshot.confidence.to_dict()
        ),
    }


def write_fixtures(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    engine = build_campaign()
    engine.save_checkpoint(out / "v2.json")
    engine.save_checkpoint(out / "v2.npz")
    legacy = engine.state_dict()
    for user_state in legacy["users"].values():
        for key in _V2_USER_FIELDS:
            del user_state[key]
    for key in _V2_FIELDS:
        del legacy[key]
    write_checkpoint(out / "v1.json", STREAM_CHECKPOINT_KIND, 1, legacy)
    snapshots: dict[str, Any] = {}
    for name, (checkpoint, drift) in RENDERINGS.items():
        restored = StreamingGeolocator.load_checkpoint(out / checkpoint, drift=drift)
        (out / f"{name}.state.json").write_text(
            json.dumps(restored.state_dict()), encoding="utf-8"
        )
        snapshots[name] = snapshot_record(restored.snapshot())
    (out / "snapshots.json").write_text(
        json.dumps(snapshots, indent=1) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    write_fixtures(Path(sys.argv[1]))
