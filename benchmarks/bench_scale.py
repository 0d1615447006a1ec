"""Out-of-core scale bench: the sharded engine's million-user numbers.

Times the sharded crowd engine end to end on a synthetic crowd of
``--users`` users (default 100k; pass ``--users 1000000`` for the
million-user run):

* **store**   -- streaming the crowd into the columnar
  :class:`~repro.datasets.store.TraceStore` chunk by chunk
  (:meth:`TraceStore.write_columns`, so the full stamp column never
  lives in memory), then what a store run does with it: opening it and
  reducing every shard at its default sharding
  (:func:`~repro.core.shard.compute_partials`) as ``store_load_s``;
  below :data:`MAX_INMEMORY_USERS` also the JSONL route to the same
  per-user reduction, parsing the crowd (:func:`load_trace_set`) and
  reducing its columns with :func:`~repro.core.shard.compute_shard_partial`,
  as ``jsonl_load_s``,
* **sharded** -- ``geolocate_store_sharded`` at :data:`SWEEP_SHARDS`
  shards across a worker sweep (1..cpu_count threads over the one open
  store), against ``geolocate_store`` at its default sharding (one shard
  per 8,192 users), with the verdict equality asserted; each call is
  timed :data:`STREAMING_REPEATS` times (best under ``workers`` and
  ``oracle_store_s``, median under ``workers_median`` and
  ``oracle_store_median_s``),
* **snapshot / checkpoint** (below :data:`MAX_INMEMORY_USERS`) -- the
  streaming geolocator's cold and warm snapshots and ``.npz`` checkpoint
  save and load, each timed :data:`STREAMING_REPEATS` times (best as
  ``<layer>_s``, median as ``<layer>_median_s``).

Results are merged into ``BENCH_core.json`` under the ``"scale"`` key
(the ``full``/``smoke`` sections written by :mod:`perf_baseline` are
preserved)::

    PYTHONPATH=src python benchmarks/bench_scale.py
    PYTHONPATH=src python benchmarks/bench_scale.py --users 1000000 --workers 1 2 4
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from perf_baseline import BENCH_PATH

from repro.core.events import ActivityTrace, TraceSet
from repro.core.geolocate import CrowdGeolocator
from repro.core.reference import parametric_generic_profile
from repro.core.shard import compute_partials, compute_shard_partial
from repro.core.streaming import StreamingGeolocator
from repro.datasets.store import TraceStore
from repro.datasets.traces import load_trace_set, save_trace_set

#: Above this crowd size the in-memory comparison layers (JSONL baseline,
#: streaming snapshots) are skipped -- they exist to compare against
#: superseded paths and would dominate the bench; the
#: streamed store write and the sharded engine are what scale.
MAX_INMEMORY_USERS = 200_000

#: Users generated per synthesis chunk; peak generator memory is one
#: chunk's stamps regardless of the crowd size.
CHUNK_USERS = 100_000

#: Fresh events streamed before each warm snapshot.
WARM_EVENTS = 1_000

#: Timed repeats of each sharded-sweep call and each streaming layer
#: (snapshots and checkpoint I/O); the best and the median are recorded.
STREAMING_REPEATS = 5

#: Shards used for the sharded-engine sweep (fixed so worker counts are
#: compared on identical work units).
SWEEP_SHARDS = 8


def synthetic_chunks(
    n_users: int,
    posts_per_user: int,
    *,
    seed: int = 11,
    n_days: int = 45,
    chunk_users: int = CHUNK_USERS,
):
    """A diurnal crowd generated straight into columnar chunks.

    Yields ``(user_ids, lengths, stamps)`` blocks of at most
    *chunk_users* users -- the exact shape
    :meth:`TraceStore.write_columns` consumes -- with one spawned
    ``SeedSequence`` per chunk, so the crowd is deterministic for a given
    *seed* no matter how it is chunked.  Same statistical shape as the
    previous in-memory generator: canonical diurnal curve, one random
    zone per user.
    """
    weights = parametric_generic_profile().mass
    n_chunks = (n_users + chunk_users - 1) // chunk_users
    seeds = np.random.SeedSequence(seed).spawn(n_chunks)
    for chunk in range(n_chunks):
        lo = chunk * chunk_users
        hi = min(lo + chunk_users, n_users)
        block = hi - lo
        rng = np.random.default_rng(seeds[chunk])
        n_posts = block * posts_per_user
        zones = rng.integers(-11, 13, size=block)
        days = rng.integers(0, n_days, size=n_posts)
        local_hours = rng.choice(24, size=n_posts, p=weights)
        stamps = (
            days * 86400.0
            + (local_hours - np.repeat(zones, posts_per_user)) * 3600.0
            + rng.uniform(0.0, 3600.0, size=n_posts)
        )
        stamps = np.abs(stamps)
        # Sort within each user's segment (store layout expects sorted traces).
        stamps = np.sort(stamps.reshape(block, posts_per_user), axis=1).ravel()
        user_ids = [f"user_{index:07d}" for index in range(lo, hi)]
        lengths = np.full(block, posts_per_user, dtype=np.int64)
        yield user_ids, lengths, stamps


def synthetic_columns(
    n_users: int, posts_per_user: int, *, seed: int = 11, n_days: int = 45
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The chunked generator materialised (for the in-memory layers)."""
    ids: list[str] = []
    length_parts: list[np.ndarray] = []
    stamp_parts: list[np.ndarray] = []
    for chunk_ids, lengths, stamps in synthetic_chunks(
        n_users, posts_per_user, seed=seed, n_days=n_days
    ):
        ids.extend(chunk_ids)
        length_parts.append(lengths)
        stamp_parts.append(stamps)
    return ids, np.concatenate(stamp_parts), np.concatenate(length_parts)


def _traces(user_ids, stamps, lengths):
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    for i, user_id in enumerate(user_ids):
        yield ActivityTrace(user_id, stamps[offsets[i] : offsets[i + 1]])


def _times(func, *, repeat: int = 1) -> list[float]:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        func()
        times.append(time.perf_counter() - start)
    return times


def _time(func, *, repeat: int = 1) -> float:
    return min(_times(func, repeat=repeat))


def _record(results: dict, name: str, times: list[float]) -> None:
    """``<name>_s`` (best) and ``<name>_median_s`` of *times*."""
    results[f"{name}_s"] = round(min(times), 4)
    results[f"{name}_median_s"] = round(statistics.median(times), 4)


def _timed_verdicts(call) -> tuple[list[float], object]:
    """Wall times of :data:`STREAMING_REPEATS` calls and the last report.

    Only one report is alive at a time: at a million users each holds a
    million-entry ``user_zones`` dict.
    """
    last: list = []

    def run() -> None:
        last.clear()
        last.append(call())

    return _times(run, repeat=STREAMING_REPEATS), last[0]


def _bench_sharded(store: TraceStore, workers_sweep: list[int]) -> dict:
    """The fixed-shard worker sweep vs the default-sharded store run.

    ``oracle_store_s`` times ``geolocate_store`` at its default sharding
    (one shard per 8,192 users, calling thread only); every sweep verdict
    must equal it.  Each call runs :data:`STREAMING_REPEATS` times.
    """
    locator = CrowdGeolocator()
    sharded: dict = {
        "n_shards": SWEEP_SHARDS,
        "repeats": STREAMING_REPEATS,
        "workers": {},
        "workers_median": {},
    }

    times, oracle = _timed_verdicts(
        lambda: locator.geolocate_store(store, crowd_name="scale")
    )
    _record(sharded, "oracle_store", times)

    for workers in workers_sweep:
        times, report = _timed_verdicts(
            lambda: locator.geolocate_store_sharded(
                store,
                crowd_name="scale",
                n_shards=SWEEP_SHARDS,
                max_workers=workers,
            )
        )
        sharded["workers"][str(workers)] = round(min(times), 4)
        sharded["workers_median"][str(workers)] = round(
            statistics.median(times), 4
        )
        if (
            report.placement.fractions != oracle.placement.fractions
            or report.user_zones != oracle.user_zones
        ):
            raise AssertionError(
                f"sharded verdict diverged from the oracle at "
                f"{workers} workers"
            )
    sharded["matches_oracle"] = True
    single = sharded["workers"][str(workers_sweep[0])]
    best = min(sharded["workers"].values())
    sharded["multiworker_speedup"] = round(single / best, 2)
    return sharded


def run(
    n_users: int, posts_per_user: int, workers_sweep: list[int] | None = None
) -> dict:
    if workers_sweep is None:
        cores = os.cpu_count() or 1
        workers_sweep = sorted({1, min(2, cores), min(4, cores), cores})
    results: dict = {
        "n_users": n_users,
        "posts_per_user": posts_per_user,
        "cpu_count": os.cpu_count() or 1,
    }
    print(
        f"streaming {n_users} users x {posts_per_user} posts "
        f"({(n_users + CHUNK_USERS - 1) // CHUNK_USERS} chunks) ..."
    )

    with tempfile.TemporaryDirectory() as tmp:
        store_path = Path(tmp) / "crowd.store"

        start = time.perf_counter()
        store = TraceStore.write_columns(
            synthetic_chunks(n_users, posts_per_user), store_path
        )
        results["store_convert_s"] = round(time.perf_counter() - start, 4)

        references = CrowdGeolocator().references

        def load_store():
            opened = TraceStore.open(store_path)
            return compute_partials(
                opened,
                references,
                min_posts=30,
                n_shards=opened.default_shard_count(),
            )

        results["store_load_s"] = round(_time(load_store, repeat=2), 4)

        print(f"sharded sweep over workers {workers_sweep} ...")
        results["sharded"] = _bench_sharded(store, workers_sweep)

        if n_users > MAX_INMEMORY_USERS:
            print(
                f"  (skipping JSONL/snapshot comparison layers above "
                f"{MAX_INMEMORY_USERS} users)"
            )
            return results

        # -- superseded-path comparison layers (small crowds only) ---------
        user_ids, stamps, lengths = synthetic_columns(n_users, posts_per_user)

        jsonl_path = Path(tmp) / "crowd.jsonl"
        save_trace_set(TraceSet(_traces(user_ids, stamps, lengths)), jsonl_path)

        def load_jsonl():
            crowd = load_trace_set(jsonl_path)
            return compute_shard_partial(*crowd.columns(), references, min_posts=30)

        results["jsonl_load_s"] = round(_time(load_jsonl), 4)
        results["load_speedup"] = round(
            results["jsonl_load_s"] / results["store_load_s"], 2
        )

        geo = StreamingGeolocator(min_posts=30)
        geo.ingest_store(store)

        def cold_snapshot():
            geo.invalidate_all()
            return geo.snapshot()

        results["streaming_repeats"] = STREAMING_REPEATS
        _record(
            results,
            "snapshot_cold",
            _times(cold_snapshot, repeat=STREAMING_REPEATS),
        )

        warm = []
        clock = [int(stamps.max()) + 1]
        for _ in range(STREAMING_REPEATS):
            for k in range(WARM_EVENTS):
                geo.observe(user_ids[k % n_users], float(clock[0]))
                clock[0] += 7_200  # every event lands in a fresh cell
            warm += _times(geo.snapshot)
        _record(results, "snapshot_warm", warm)
        results["snapshot_speedup"] = round(
            results["snapshot_cold_s"] / results["snapshot_warm_s"], 2
        )

        ckpt = Path(tmp) / "crowd.ckpt.npz"
        _record(
            results,
            "checkpoint_save",
            _times(lambda: geo.save_checkpoint(ckpt), repeat=STREAMING_REPEATS),
        )
        _record(
            results,
            "checkpoint_load",
            _times(
                lambda: StreamingGeolocator.load_checkpoint(ckpt),
                repeat=STREAMING_REPEATS,
            ),
        )

    return results


def merge_into_bench(results: dict, n_users: int) -> None:
    payload = (
        json.loads(BENCH_PATH.read_text(encoding="utf-8"))
        if BENCH_PATH.exists()
        else {}
    )
    payload.setdefault("scale", {})[str(n_users)] = results
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"merged into {BENCH_PATH} under scale.{n_users}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--users", type=int, default=100_000)
    parser.add_argument("--posts", type=int, default=35)
    parser.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=None,
        help="worker counts for the sharded sweep (default: 1..cpu_count)",
    )
    args = parser.parse_args(argv)

    results = run(args.users, args.posts, args.workers)
    for name, value in results.items():
        print(f"  {name:20s} {value}")
    merge_into_bench(results, args.users)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
