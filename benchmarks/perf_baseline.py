"""Record the batch-engine perf trajectory into ``BENCH_core.json``.

Times the hot inference paths of the vectorised batch engine on a
synthetic 5k-user crowd, and dumps the numbers (plus a small smoke-sized
set used by :mod:`perf_smoke`) to ``BENCH_core.json`` at the repo root so
they are tracked across PRs.

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf_baseline.py
    PYTHONPATH=src python benchmarks/perf_baseline.py --scale --scale-users 100000

``--scale`` also refreshes the ``scale`` section (via
:mod:`bench_scale`) in the same run, so ``BENCH_core.json`` carries one
coherent trajectory stamped by a single toolchain fingerprint.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from _shared import synthetic_crowd
from repro._version import __version__
from repro.obs.manifest import RunManifest
from repro.core.batch import ProfileMatrix
from repro.core.emd import distance_matrix
from repro.core.geolocate import CrowdGeolocator
from repro.core.placement import placement_distribution
from repro.core.reference import ReferenceProfiles
from repro.core.shard import compute_partials, compute_shard_partial
from repro.core.streaming import StreamingGeolocator
from repro.datasets.store import TraceStore

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_core.json"

#: Crowd size of the headline numbers (the ISSUE's acceptance criterion).
FULL_USERS = 5_000
#: Crowd size of the seconds-fast smoke set gated by perf_smoke.py.
SMOKE_USERS = 1_000


def _time(func, *args, repeat: int = 1, **kwargs) -> float:
    """Best-of-*repeat* wall time of one call (seconds), after one warmup."""
    func(*args, **kwargs)  # warm caches/allocator so first-call cost is excluded
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        func(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return best


def _timings(n_users: int, *, repeat: int) -> dict[str, dict[str, float]]:
    crowd = synthetic_crowd(n_users, seed=11)
    references = ReferenceProfiles.canonical()
    locator = CrowdGeolocator()
    results: dict[str, dict[str, float]] = {}

    def record(name: str, fast_s: float) -> None:
        results[name] = {"fast_s": round(fast_s, 6)}

    record(
        "profile_build",
        _time(ProfileMatrix.from_trace_set, crowd, repeat=repeat),
    )

    matrix = ProfileMatrix.from_trace_set(crowd)
    record(
        "distance_matrix",
        _time(distance_matrix, matrix, references, repeat=repeat),
    )

    # The per-user reduction geolocate() runs: Eq. 1 rows, flat flags and
    # nearest zones of the crowd's active users.
    record(
        "shard_partial",
        _time(
            compute_shard_partial,
            *crowd.columns(),
            references,
            min_posts=30,
            repeat=repeat,
        ),
    )

    record("geolocate", _time(locator.geolocate, crowd, repeat=repeat))

    assignments = list(locator.geolocate(crowd).user_zones.values())
    record(
        "placement_distribution",
        _time(placement_distribution, assignments, repeat=repeat),
    )

    # Out-of-core paths: what geolocate_store runs before assembly (open
    # the store, reduce its default shards) and the warm incremental
    # streaming snapshot, gated by perf_smoke alongside the batch-engine
    # entries above.
    with tempfile.TemporaryDirectory() as tmp:
        store_path = Path(tmp) / "crowd.store"
        TraceStore.write(crowd, store_path)

        def store_partials():
            store = TraceStore.open(store_path)
            return compute_partials(
                store,
                references,
                min_posts=30,
                n_shards=store.default_shard_count(),
            )

        record("store_partials", _time(store_partials, repeat=repeat))

    stream = StreamingGeolocator(references)
    for trace in crowd:
        for timestamp in trace.timestamps:
            stream.observe(trace.user_id, float(timestamp))
    stream.snapshot()  # place everyone once; timed snapshots are warm
    record("streaming_snapshot", _time(stream.snapshot, repeat=repeat))
    return results


def _ingest_timings(n_users: int = SMOKE_USERS, *, repeat: int = 1) -> dict:
    """Time the three streaming intake paths on one chronological feed.

    ``per_event_s`` is the serial ``observe()`` loop, ``batch_s`` one
    ``observe_batch`` call over the same interleaved event order, and
    ``store_s`` the columnar ``ingest_store`` replay (pre-grouped, no
    per-chunk factorisation).  All three land the engine in the same
    final state (see ``tests/test_streaming_batch.py``), so the ratios
    are pure pipeline cost.
    """
    crowd = synthetic_crowd(n_users, seed=17)
    references = ReferenceProfiles.canonical()
    events = sorted(
        (float(timestamp), trace.user_id)
        for trace in crowd
        for timestamp in trace.timestamps
    )
    user_ids = [user_id for _, user_id in events]
    stamps = np.asarray([timestamp for timestamp, _ in events], dtype=np.float64)

    def per_event():
        engine = StreamingGeolocator(references)
        for timestamp, user_id in events:
            engine.observe(user_id, timestamp)
        return engine

    def bulk():
        engine = StreamingGeolocator(references)
        engine.observe_batch(user_ids, stamps)
        return engine

    with tempfile.TemporaryDirectory() as tmp:
        store = TraceStore.write(crowd, Path(tmp) / "ingest.store")

        def from_store():
            engine = StreamingGeolocator(references)
            engine.ingest_store(store)
            return engine

        per_event_s = _time(per_event, repeat=repeat)
        batch_s = _time(bulk, repeat=repeat)
        store_s = _time(from_store, repeat=repeat)
    n_events = len(events)
    return {
        "n_users": n_users,
        "n_events": n_events,
        "per_event_s": round(per_event_s, 6),
        "batch_s": round(batch_s, 6),
        "store_s": round(store_s, 6),
        "batch_speedup": round(per_event_s / batch_s, 2),
        "store_speedup": round(per_event_s / store_s, 2),
        "per_event_events_per_s": round(n_events / per_event_s),
        "batch_events_per_s": round(n_events / batch_s),
        "store_events_per_s": round(n_events / store_s),
    }


def run() -> dict:
    # The manifest fingerprint ties every BENCH_core.json entry back to the
    # exact bench configuration and toolchain that produced it (same
    # fingerprint => comparable numbers).
    manifest = RunManifest.collect(
        "perf_baseline",
        config={
            "full_users": FULL_USERS,
            "smoke_users": SMOKE_USERS,
            "crowd_seed": 11,
        },
        seed=11,
    )
    payload = {
        "meta": {
            "version": __version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "full_users": FULL_USERS,
            "smoke_users": SMOKE_USERS,
            "manifest_fingerprint": manifest.fingerprint(),
        },
        "full": _timings(FULL_USERS, repeat=1),
        "smoke": _timings(SMOKE_USERS, repeat=3),
        # Bulk-ingest trajectory (PR 8): one 100k-event chronological feed
        # through all three intake paths, gated by perf_smoke.
        "streaming_ingest": _ingest_timings(SMOKE_USERS, repeat=3),
    }
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--scale",
        action="store_true",
        help="also refresh the BENCH scale section via bench_scale",
    )
    parser.add_argument(
        "--scale-users",
        type=int,
        default=100_000,
        help="crowd size for the --scale run (default 100000)",
    )
    args = parser.parse_args(argv)

    payload = run()
    if BENCH_PATH.exists():
        # Keep the scale section written by bench_scale.py across re-baselines.
        previous = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
        if "scale" in previous:
            payload["scale"] = previous["scale"]
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {BENCH_PATH}")
    for name, entry in payload["full"].items():
        print(f"  {name:24s} {entry['fast_s'] * 1e3:9.2f} ms")
    ingest = payload["streaming_ingest"]
    print(
        f"  {'streaming_ingest':24s} per-event {ingest['per_event_s'] * 1e3:.2f} ms"
        f"  batch {ingest['batch_s'] * 1e3:.2f} ms"
        f" ({ingest['batch_speedup']:.1f}x)"
        f"  store {ingest['store_s'] * 1e3:.2f} ms"
        f" ({ingest['store_speedup']:.1f}x,"
        f" {ingest['store_events_per_s']:,} events/s)"
    )

    if args.scale:
        import bench_scale

        results = bench_scale.run(args.scale_users, 35)
        bench_scale.merge_into_bench(results, args.scale_users)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
