"""The frozen synthetic-data digests and the script that wrote them.

Usage::

    PYTHONPATH=src python tests/synth_fixtures.py OUTDIR

Every builder of :mod:`repro.synth` is called once with fixed arguments
(:data:`BUILDERS`), and ``digests.json`` records, per call, a SHA-256
over every generated trace's user id and stamp bytes in iteration
order, with the trace and post counts beside it.  Where the caller owns
the generator, the record also holds ``rng.bit_generator.state`` after
the call, so a generator that drew one number more or less, or in
another order, fails even when its stamps agree.  The drift scenarios
add their ``moved_ids`` and a digest of ``sorted_events()``; the
experiment context adds its reference profile.

The committed file was written by the per-day posting loops (now the
oracle in ``tests/synth_oracle.py``) and the calendar-walking DST rule,
and ``tests/test_synth_oracle.py`` holds today's generators to it
digest for digest.  Do not regenerate it to make that test pass: every
committed result of the reproduction rests on these streams.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import Any

import numpy as np

from repro.analysis.experiments import make_context
from repro.core.events import ActivityTrace
from repro.synth import (
    FORUM_SPECS,
    DriftScenario,
    build_dst_scenario,
    build_forum_crowd,
    build_merged_crowd,
    build_region_crowd,
    build_relocated_crowd,
    build_relocation_scenario,
    build_server_offset_scenario,
    build_twitter_dataset,
    generate_bot_trace,
    generate_crowd,
    generate_shift_worker_trace,
    model_for_region,
    sample_population,
)
from repro.timebase.zones import TABLE1_KEYS

#: Where the committed fixture lives.
FIXTURE_PATH = Path(__file__).parent / "fixtures" / "synth" / "digests.json"

Record = dict[str, Any]


def traces_digest(traces: Iterable[ActivityTrace]) -> Record:
    """SHA-256 over each trace's id, length and float64 stamp bytes."""
    digest = hashlib.sha256()
    n_traces = n_posts = 0
    for trace in traces:
        stamps = np.ascontiguousarray(trace.timestamps, dtype="<f8")
        digest.update(trace.user_id.encode("utf-8") + b"\0")
        digest.update(stamps.size.to_bytes(8, "little"))
        digest.update(stamps.tobytes())
        n_traces += 1
        n_posts += int(stamps.size)
    return {"sha256": digest.hexdigest(), "n_traces": n_traces, "n_posts": n_posts}


def events_digest(events: list[tuple[float, str]]) -> str:
    """SHA-256 over ``sorted_events()``: the stamp column, then the ids."""
    digest = hashlib.sha256()
    digest.update(np.asarray([stamp for stamp, _ in events], dtype="<f8").tobytes())
    digest.update("\n".join(user_id for _, user_id in events).encode("utf-8"))
    return digest.hexdigest()


def _context(region: str) -> Record:
    context = make_context(seed=2016, scale=0.04)
    return traces_digest(context.dataset.crowd(region))


def _context_references() -> Record:
    generic = make_context(seed=2016, scale=0.04).references.generic.mass
    return {"generic": [float(value).hex() for value in generic]}


def _twitter_new_year() -> Record:
    dataset = build_twitter_dataset(seed=5, scale=0.01, start_day=-20, n_days=40)
    return {
        region: traces_digest(dataset.crowd(region)) for region in dataset.region_keys()
    }


def _region(region: str) -> Record:
    return traces_digest(
        build_region_crowd(region, 40, seed=3, start_day=-30, n_days=400)
    )


def _forum(key: str) -> Record:
    return traces_digest(build_forum_crowd(FORUM_SPECS[key], seed=7).traces)


def _scenario(scenario: DriftScenario) -> Record:
    return {
        "traces": traces_digest(scenario.traces),
        "moved_ids": sorted(scenario.moved_ids),
        "move_day": scenario.move_day,
        "shift_hours": scenario.shift_hours,
        "base_offset": scenario.base_offset,
        "sorted_events": events_digest(scenario.sorted_events()),
    }


def _caller_crowd() -> Record:
    rng = np.random.default_rng(11)
    specs = sample_population("new_york", 30, rng)
    traces = generate_crowd(specs, rng, start_day=-5, n_days=30)
    return {"traces": traces_digest(traces), "rng_state": rng.bit_generator.state}


def _sample_hours() -> Record:
    rng = np.random.default_rng(12)
    model = model_for_region("brazil")
    hours = [model.sample_hours(n, rng, chronotype_shift=1.25) for n in (0, 1, 5, 40)]
    digest = hashlib.sha256(np.concatenate(hours).astype("<f8").tobytes())
    return {"sha256": digest.hexdigest(), "rng_state": rng.bit_generator.state}


def _flat_users(posts_per_day: float) -> Record:
    rng = np.random.default_rng(13)
    traces = []
    for index in range(6):
        traces.append(
            generate_bot_trace(
                f"bot_{index}", rng, start_day=-12, n_days=60, posts_per_day=posts_per_day
            )
        )
        traces.append(
            generate_shift_worker_trace(
                f"shift_{index}",
                rng,
                start_day=-12,
                n_days=60,
                posts_per_active_day=posts_per_day,
                rotation_days=3 + index,
                utc_offset=index - 3,
            )
        )
    return {"traces": traces_digest(traces), "rng_state": rng.bit_generator.state}


#: Record name -> the seeded call it digests.
BUILDERS: dict[str, Callable[[], Record]] = {
    **{
        f"make_context/{region}": (lambda region=region: _context(region))
        for region in TABLE1_KEYS
    },
    "make_context/references": _context_references,
    "build_twitter_dataset/new_year": _twitter_new_year,
    **{
        f"build_region_crowd/{region}": (lambda region=region: _region(region))
        for region in ("germany", "california", "new_south_wales", "brazil", "malaysia")
    },
    **{
        f"build_forum_crowd/{key}": (lambda key=key: _forum(key))
        for key in FORUM_SPECS
    },
    "build_relocated_crowd": lambda: traces_digest(
        build_relocated_crowd("malaysia", (8, 0, -5), 30, seed=7)
    ),
    "build_merged_crowd": lambda: traces_digest(
        build_merged_crowd(("germany", "brazil", "japan"), 30, seed=7)
    ),
    "build_relocation_scenario": lambda: _scenario(
        build_relocation_scenario(n_users=60, n_days=100, seed=7)
    ),
    "build_server_offset_scenario": lambda: _scenario(
        build_server_offset_scenario("brazil", n_users=40, start_day=-50, seed=7)
    ),
    "build_dst_scenario": lambda: _scenario(
        build_dst_scenario("california", n_users=40, direction=-1, seed=7)
    ),
    "generate_crowd/caller_rng": _caller_crowd,
    "DiurnalModel.sample_hours": _sample_hours,
    "flat_users/posts_per_day=0.01": lambda: _flat_users(0.01),
    "flat_users/posts_per_day=12": lambda: _flat_users(12.0),
}


def compute_digests() -> dict[str, Record]:
    """Every builder's record, in :data:`BUILDERS` order."""
    return {name: build() for name, build in BUILDERS.items()}


def render(digests: dict[str, Record]) -> str:
    return json.dumps(digests, indent=1) + "\n"


def write_fixture(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / FIXTURE_PATH.name).write_text(render(compute_digests()), encoding="utf-8")


if __name__ == "__main__":
    write_fixture(Path(sys.argv[1]))
