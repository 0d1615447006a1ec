"""CI perf smoke test: fail loudly on >2x regression vs BENCH_core.json.

Re-times the smoke-sized fast paths recorded by :mod:`perf_baseline` and
exits non-zero when any of them runs more than :data:`TOLERANCE` times
slower than the recorded baseline.  Completes in a few seconds, so it is
suitable as a CI gate::

    PYTHONPATH=src python benchmarks/perf_smoke.py            # check
    PYTHONPATH=src python benchmarks/perf_baseline.py         # re-baseline
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from perf_baseline import (
    BENCH_PATH,
    FULL_USERS,
    SMOKE_USERS,
    _ingest_timings,
    _time,
    _timings,
)

#: Maximum tolerated slowdown factor vs the recorded smoke baseline.
TOLERANCE = 2.0

#: Absolute slack (seconds) so sub-millisecond entries are not failed on
#: scheduler noise: a path only regresses when it is both TOLERANCE times
#: and ABSOLUTE_SLACK_S slower than its baseline.
ABSOLUTE_SLACK_S = 0.010

#: Maximum tolerated slowdown of the fully-instrumented pipeline (live
#: metrics registry + live tracer) vs the obs-disabled run on the
#: FULL_USERS bench crowd -- the ISSUE's <5% observability budget.
OBS_OVERHEAD_TOLERANCE = 1.05

#: Absolute slack for the overhead gate, again against scheduler noise.
OBS_ABSOLUTE_SLACK_S = 0.050


def _obs_overhead_check() -> bool:
    """Gate: enabling metrics + tracing must cost < 5% on the 5k bench."""
    from _shared import synthetic_crowd
    from repro.core.geolocate import CrowdGeolocator
    from repro.obs import metrics as obs_metrics
    from repro.obs import tracing as obs_tracing

    crowd = synthetic_crowd(FULL_USERS, seed=11)
    locator = CrowdGeolocator()
    disabled_s = _time(locator.geolocate, crowd, repeat=3)
    with obs_metrics.use_registry(obs_metrics.MetricsRegistry()):
        with obs_tracing.use_tracer(obs_tracing.Tracer()):
            enabled_s = _time(locator.geolocate, crowd, repeat=3)
    ratio = enabled_s / disabled_s
    ok = enabled_s <= disabled_s * OBS_OVERHEAD_TOLERANCE + OBS_ABSOLUTE_SLACK_S
    status = "ok" if ok else "FAIL"
    print(
        f"  {'obs_overhead':24s} disabled {disabled_s * 1e3:8.2f} ms  "
        f"enabled {enabled_s * 1e3:8.2f} ms  ({ratio:.2f}x)  {status}"
    )
    return ok


#: Maximum tolerated slowdown of a streaming replay with the full health
#: observatory attached (series sampler + SLO monitor + sampling
#: profiler) vs the same replay with no observatory -- the ISSUE's <5%
#: budget for the observatory layer.
OBSERVATORY_OVERHEAD_TOLERANCE = 1.05

#: Absolute slack for the observatory gate, against scheduler noise.
OBSERVATORY_ABSOLUTE_SLACK_S = 0.050


def _observatory_overhead_check() -> bool:
    """Gate: the attached observatory costs < 5% and mutates nothing.

    Replays the same chunked feed through (a) a bare engine and (b) an
    engine with a bound series sampler, the default SLO rules and a live
    sampling profiler, ticking the observatory on every chunk's stream
    time exactly like ``darkcrowd replay``.  The observed run must stay
    within 5% of the bare run and its ``state_dict()`` must be
    bit-identical -- the observatory is a read-only passenger.
    """
    from _shared import synthetic_crowd
    from repro.core.streaming import StreamingGeolocator
    from repro.obs.health import HealthMonitor, Observatory, default_streaming_rules
    from repro.obs.profiler import SamplingProfiler
    from repro.obs.timeseries import SeriesSampler

    crowd = synthetic_crowd(400, seed=37)
    events = sorted(
        (float(timestamp), trace.user_id)
        for trace in crowd
        for timestamp in trace.timestamps
    )
    chunks = [events[i : i + 1024] for i in range(0, len(events), 1024)]

    def stream(observed: bool):
        engine = StreamingGeolocator()
        observatory = None
        profiler = None
        if observed:
            sampler = SeriesSampler()
            sampler.bind_streaming_engine(engine)
            observatory = Observatory(
                sampler=sampler,
                health=HealthMonitor(
                    default_streaming_rules(interval_s=sampler.interval_s)
                ),
            )
            profiler = SamplingProfiler()
            profiler.start()
        try:
            for chunk in chunks:
                engine.observe_batch(
                    [user_id for _, user_id in chunk],
                    [timestamp for timestamp, _ in chunk],
                )
                if observatory is not None:
                    observatory.tick(chunk[-1][0])
            engine.snapshot()
        finally:
            if profiler is not None:
                profiler.stop()
            if observatory is not None:
                observatory.close()
        return engine

    bare_s = _time(stream, False, repeat=3)
    observed_s = _time(stream, True, repeat=3)
    ratio = observed_s / bare_s
    fast_enough = (
        observed_s <= bare_s * OBSERVATORY_OVERHEAD_TOLERANCE
        + OBSERVATORY_ABSOLUTE_SLACK_S
    )
    identical = stream(True).state_dict() == stream(False).state_dict()

    ok = fast_enough and identical
    status = "ok" if ok else "FAIL"
    detail = "bit-identical" if identical else "DIVERGED"
    print(
        f"  {'observatory_overhead':24s} bare {bare_s * 1e3:8.2f} ms  "
        f"observed {observed_s * 1e3:8.2f} ms  ({ratio:.2f}x, {detail})  "
        f"{status}"
    )
    return ok


#: Maximum tolerated slowdown of a drift-*disabled* streaming engine vs a
#: replica of the pre-drift observe() body -- the drift layer must be
#: inert when not asked for.
DRIFT_OFF_TOLERANCE = 1.05

#: Absolute slack for the drift-off gate, against scheduler noise.
DRIFT_ABSOLUTE_SLACK_S = 0.050


def _drift_inertness_check() -> bool:
    """Gate: the drift layer costs nothing and changes nothing when off.

    Streams the same crowd through (a) a drift-disabled engine and (b) a
    replica running the pre-drift ``observe`` body verbatim, then checks
    the drift-off run is within 5% of the replica and that its snapshot
    is bit-identical to both the replica's and the cold
    ``snapshot_reference()`` oracle.
    """
    from _shared import synthetic_crowd
    from repro.core.kernels import valid_stamps
    from repro.core.profiles import HOURS
    from repro.core.streaming import StreamingGeolocator, _refusal
    from repro.errors import CorruptTraceError

    class _PreDriftReplica(StreamingGeolocator):
        # A copy of StreamingGeolocator.observe (core/streaming.py) that
        # leaves out only its drift lines: the ``day >= table.anchor[row]``
        # test, the ``table.bits`` update and the ``_drift_on_new_cell``
        # call.  The rest mirrors observe() statement for statement, so a
        # change to how observe() updates the user table is made here too.
        def observe(self, user_id: str, timestamp: float) -> None:
            if not valid_stamps(timestamp):
                raise CorruptTraceError(_refusal(user_id, timestamp, "the event"))
            table = self._table
            row = table.index.get(user_id)
            if row is None:
                row = table.add(user_id)
            posts = table.posts[row] + 1
            table.posts[row] = posts
            day = int(timestamp // 86400.0)
            hour = int((timestamp % 86400.0) // 3600.0)
            if hour == HOURS:
                hour = HOURS - 1
            if day > table.max_day[row]:
                table.max_day[row] = day
            cell = day * HOURS + hour
            cells = table.sets[row]
            if cells is None:
                cells = table.thaw(row)
            opened_cell = cell not in cells
            if opened_cell:
                cells.add(cell)
                table.flat_counts[row * HOURS + hour] += 1.0
            if opened_cell or posts == self.min_posts:
                self._dirty.add(row)
            self._n_events += 1

    crowd = synthetic_crowd(400, seed=29)
    events = sorted(
        (float(ts), trace.user_id)
        for trace in crowd
        for ts in trace.timestamps
    )

    def stream(engine_class):
        engine = engine_class()
        for timestamp, user_id in events:
            engine.observe(user_id, timestamp)
        engine.snapshot()
        return engine

    replica_s = _time(stream, _PreDriftReplica, repeat=5)
    drift_off_s = _time(stream, StreamingGeolocator, repeat=5)
    ratio = drift_off_s / replica_s
    fast_enough = (
        drift_off_s <= replica_s * DRIFT_OFF_TOLERANCE + DRIFT_ABSOLUTE_SLACK_S
    )

    drift_off = stream(StreamingGeolocator)
    replica = stream(_PreDriftReplica)
    warm = drift_off.snapshot()
    identical = (
        warm.placement == replica.snapshot().placement
        and warm.placement == drift_off.snapshot_reference().placement
        and drift_off.migrations == []
        and drift_off.timeline is None
        and warm.confidence is None
    )

    ok = fast_enough and identical
    status = "ok" if ok else "FAIL"
    detail = "bit-identical" if identical else "DIVERGED"
    print(
        f"  {'drift_off_inertness':24s} replica {replica_s * 1e3:8.2f} ms  "
        f"drift-off {drift_off_s * 1e3:8.2f} ms  ({ratio:.2f}x, {detail})  "
        f"{status}"
    )
    return ok


#: Minimum speedup of ``ingest_store`` over the per-event observe() loop
#: on the smoke crowd (1000 users x 100 posts = 100k events) -- the
#: ISSUE's bulk-ingest acceptance bar.
INGEST_STORE_MIN_SPEEDUP = 5.0

#: Minimum speedup of a single ``observe_batch`` call over the per-event
#: loop on the same interleaved feed (pays per-chunk factorisation the
#: store path skips, so the bar is lower).
INGEST_BATCH_MIN_SPEEDUP = 2.0


def _ingest_throughput_check() -> bool:
    """Gate: bulk intake is fast *and* lands in the per-event state.

    Re-times the three intake paths on the 100k-event smoke feed and
    requires ``ingest_store`` >= 5x and ``observe_batch`` >= 2x the
    per-event loop, then replays a smaller crowd through batch and store
    to confirm the final engine state matches the per-event oracle --
    speed bought by diverging would be no speedup at all.
    """
    import tempfile

    from _shared import synthetic_crowd
    from repro.core.streaming import StreamingGeolocator
    from repro.datasets.store import TraceStore

    timings = _ingest_timings(SMOKE_USERS, repeat=2)
    fast_enough = (
        timings["store_speedup"] >= INGEST_STORE_MIN_SPEEDUP
        and timings["batch_speedup"] >= INGEST_BATCH_MIN_SPEEDUP
    )

    crowd = synthetic_crowd(400, seed=31)
    events = sorted(
        (float(timestamp), trace.user_id)
        for trace in crowd
        for timestamp in trace.timestamps
    )
    oracle = StreamingGeolocator()
    for timestamp, user_id in events:
        oracle.observe(user_id, timestamp)
    batched = StreamingGeolocator()
    batched.observe_batch(
        [user_id for _, user_id in events],
        [timestamp for timestamp, _ in events],
    )
    with tempfile.TemporaryDirectory() as tmp:
        store = TraceStore.write(crowd, Path(tmp) / "ingest.store")
        from_store = StreamingGeolocator()
        from_store.ingest_store(store)
    reference = oracle.state_dict()
    identical = (
        batched.state_dict() == reference
        and from_store.state_dict() == reference
    )

    ok = fast_enough and identical
    status = "ok" if ok else "FAIL"
    detail = "bit-identical" if identical else "DIVERGED"
    print(
        f"  {'ingest_throughput':24s} batch {timings['batch_speedup']:.1f}x  "
        f"store {timings['store_speedup']:.1f}x "
        f"({timings['store_events_per_s']:,} events/s, {detail})  {status}"
    )
    return ok


def _shard_merge_check() -> bool:
    """Gate: the 2-shard store verdicts, computed by the calling thread
    alone and with a helper thread, must equal the in-memory pipeline's."""
    import tempfile

    from _shared import synthetic_crowd
    from repro.core.geolocate import CrowdGeolocator
    from repro.datasets.store import TraceStore

    crowd = synthetic_crowd(400, seed=23)
    locator = CrowdGeolocator()
    with tempfile.TemporaryDirectory() as tmp:
        store = TraceStore.write(crowd, Path(tmp) / "smoke.store")
        oracle = locator.geolocate(store.to_trace_set(), crowd_name="smoke")
        verdicts = [
            locator.geolocate_store_sharded(
                store, crowd_name="smoke", n_shards=2, max_workers=workers
            )
            for workers in (1, 2)
        ]
    ok = all(
        sharded.placement.fractions == oracle.placement.fractions
        and sharded.user_zones == oracle.user_zones
        and sharded.n_users == oracle.n_users
        and sharded.n_posts == oracle.n_posts
        and sharded.n_removed_flat == oracle.n_removed_flat
        and sharded.mixture == oracle.mixture
        and float(sharded.crowd_profile.mass.sum())
        == float(oracle.crowd_profile.mass.sum())
        and (sharded.crowd_profile.mass == oracle.crowd_profile.mass).all()
        for sharded in verdicts
    )
    status = "ok" if ok else "FAIL"
    print(
        f"  {'shard_merge_identity':24s} 2 shards x 1 and 2 workers "
        f"vs geolocate()  {status}"
    )
    return bool(ok)


def main() -> int:
    if not BENCH_PATH.exists():
        print(
            f"perf_smoke: no baseline at {BENCH_PATH}; "
            "run benchmarks/perf_baseline.py first",
            file=sys.stderr,
        )
        return 2
    baseline = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
    recorded = baseline.get("smoke", {})
    if not recorded:
        print("perf_smoke: baseline has no 'smoke' section", file=sys.stderr)
        return 2

    current = _timings(SMOKE_USERS, repeat=5)
    failures = []
    for name, entry in recorded.items():
        now = current.get(name)
        if now is None:
            continue
        ratio = now["fast_s"] / entry["fast_s"]
        regressed = (
            ratio > TOLERANCE
            and now["fast_s"] > entry["fast_s"] + ABSOLUTE_SLACK_S
        )
        status = "FAIL" if regressed else "ok"
        print(
            f"  {name:24s} baseline {entry['fast_s'] * 1e3:8.2f} ms  "
            f"now {now['fast_s'] * 1e3:8.2f} ms  ({ratio:.2f}x)  {status}"
        )
        if regressed:
            failures.append((name, ratio))

    if not _obs_overhead_check():
        failures.append(("obs_overhead", OBS_OVERHEAD_TOLERANCE))

    if not _observatory_overhead_check():
        failures.append(
            ("observatory_overhead", OBSERVATORY_OVERHEAD_TOLERANCE)
        )

    if not _shard_merge_check():
        failures.append(("shard_merge_identity", 1.0))

    if not _drift_inertness_check():
        failures.append(("drift_off_inertness", DRIFT_OFF_TOLERANCE))

    if not _ingest_throughput_check():
        failures.append(("ingest_throughput", INGEST_STORE_MIN_SPEEDUP))

    if failures:
        worst = ", ".join(f"{name} {ratio:.2f}x" for name, ratio in failures)
        print(
            f"perf_smoke: REGRESSION above {TOLERANCE:.1f}x tolerance: {worst}",
            file=sys.stderr,
        )
        return 1
    print("perf_smoke: all hot paths within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
