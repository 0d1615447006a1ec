"""The frozen drift-lifecycle fixture and the script that wrote it.

Usage::

    PYTHONPATH=src python tests/drift_fixtures.py OUTDIR

Two seeded scenarios, a +6 h relocation and a +1 h DST slide, are
streamed with ``DriftConfig()`` two ways: event by event through
``observe()``, and one ``observe_batch`` chunk per stream day.  Both
take a snapshot at the end of every stream day.  The two replays must
agree; ``drift_lifecycle.jsonl`` holds what they record once per
scenario, one JSON value per line: every ``ZoneMigrationEvent`` field but
``wall_time``, then each day's snapshot (placement, mixture, confidence
summary; :func:`checkpoint_fixtures.snapshot_record`), then the SHA-256
of the final ``state_dict()`` rendered by ``json.dumps``.

The committed file was written by the engine that scored each candidate
change day in its own ``split_score`` call, and ``TestFrozenLifecycle``
in ``tests/test_drift.py`` holds today's engine to it line for line
(``json.dumps`` writes every float by its ``repr``).  Do not regenerate
it to make that test pass.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections.abc import Callable
from pathlib import Path
from typing import Any

import numpy as np

from checkpoint_fixtures import snapshot_record
from repro.core.drift import DriftConfig
from repro.core.streaming import StreamingGeolocator
from repro.reliability.clocks import frozen_wall_clock
from repro.synth.drift import (
    DriftScenario,
    build_dst_scenario,
    build_relocation_scenario,
)

#: Where the committed fixture lives.
FIXTURE_PATH = Path(__file__).parent / "fixtures" / "streaming" / "drift_lifecycle.jsonl"

#: Scenario name -> the seeded stream it is recorded from.
SCENARIOS: dict[str, Callable[[], DriftScenario]] = {
    "relocation": lambda: build_relocation_scenario(n_users=60, n_days=240, seed=23),
    "dst": lambda: build_dst_scenario(n_users=50, n_days=240, seed=5),
}


def _days(scenario: DriftScenario) -> list[list[tuple[float, str]]]:
    """The scenario's events in stream order, one list per stream day."""
    days: list[list[tuple[float, str]]] = []
    current = None
    for timestamp, user_id in scenario.sorted_events():
        day = int(timestamp // 86400)
        if day != current:
            days.append([])
            current = day
        days[-1].append((timestamp, user_id))
    return days


def replay(scenario: DriftScenario, *, batched: bool) -> list[dict[str, Any]]:
    """The lifecycle record of one replay, as the fixture's lines."""
    engine = StreamingGeolocator(drift=DriftConfig())
    snapshots = []
    with frozen_wall_clock(0.0):
        for events in _days(scenario):
            if batched:
                stamps = np.array([timestamp for timestamp, _ in events])
                engine.observe_batch([user_id for _, user_id in events], stamps)
            else:
                for timestamp, user_id in events:
                    engine.observe(user_id, timestamp)
            snapshots.append(snapshot_record(engine.snapshot()))
    migrations = []
    for event in engine.migrations:
        fields = event.to_dict()
        del fields["wall_time"]
        migrations.append({"migration": fields})
    state = json.dumps(engine.state_dict()).encode("utf-8")
    return (
        migrations
        + [{"snapshot": record} for record in snapshots]
        + [{"state_sha256": hashlib.sha256(state).hexdigest()}]
    )


def render(lines: list[dict[str, Any]]) -> str:
    return "".join(json.dumps(line) + "\n" for line in lines)


def write_fixture(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    lines: list[dict[str, Any]] = []
    for name, build in SCENARIOS.items():
        scenario = build()
        record = replay(scenario, batched=False)
        if render(record) != render(replay(scenario, batched=True)):
            raise AssertionError(f"{name}: batched replay differs from per-event")
        lines.append({"scenario": name})
        lines += record
    (out / FIXTURE_PATH.name).write_text(render(lines), encoding="utf-8")


if __name__ == "__main__":
    write_fixture(Path(sys.argv[1]))
