"""The benchmark workloads, their oracle checks and accuracy scores.

Each workload owns its inputs (made by :mod:`gen` from the seed), a
``setup`` that rebuilds them from scratch, and a ``job`` that is one
complete user-visible run.  Untraced jobs call the program's production
entry points.  Traced jobs call the same layers one public function at a
time with a span around each call, which is also the oracle the untraced
reports are compared against; streaming calls go to the public API
directly in both modes.
"""

from __future__ import annotations

import inspect
import math
import os
import pickle
import shutil
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

import numpy as np

import gen
from harness import Job, children_cpu_s, worker_count
from repro.core.batch import ProfileMatrix
from repro.core.drift import DriftConfig
from repro.core.em import select_mixture
from repro.core.flatness import polish_profile_matrix
from repro.core.geolocate import CrowdGeolocator, GeolocationReport
from repro.core.metrics import fit_distance_metrics, pearson
from repro.core.placement import PlacementDistribution, place_profile_matrix
from repro.core.reference import ReferenceProfiles
from repro.core.shard import compute_partials, merge_partials
from repro.core.streaming import BATCH_OBSERVE_THRESHOLD, StreamingGeolocator
from repro.datasets.store import TraceStore
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.reliability.quality import assert_traces_clean
from repro.timebase.zones import ZONE_OFFSETS

POLISH_MAX_ROUNDS = inspect.signature(polish_profile_matrix).parameters["max_iterations"].default


def same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def same_report(a, b) -> bool:
    """Bit-for-bit equality of two ``GeolocationReport`` verdicts."""
    return (
        a.n_users == b.n_users
        and a.n_posts == b.n_posts
        and a.n_removed_flat == b.n_removed_flat
        and np.array_equal(a.crowd_profile.mass, b.crowd_profile.mass)
        and same_float(a.pearson_vs_generic, b.pearson_vs_generic)
        and a.placement == b.placement
        and a.mixture == b.mixture
        and a.fit_metrics == b.fit_metrics
        and a.user_zones == b.user_zones
    )


def same_store_verdict(a, b) -> bool:
    """What the oracle and sharded store paths must agree on exactly."""
    return (
        a.placement == b.placement
        and a.user_zones == b.user_zones
        and a.mixture == b.mixture
        and np.array_equal(a.crowd_profile.mass, b.crowd_profile.mass)
    )


def same_snapshot(a, b) -> bool:
    """Verdict equality of two ``StreamSnapshot`` values (confidence aside)."""
    return (
        a.n_events_seen == b.n_events_seen
        and a.n_users_seen == b.n_users_seen
        and a.n_users_active == b.n_users_active
        and a.placement == b.placement
        and a.mixture == b.mixture
    )


def _same_binary_state(a, b) -> bool:
    (meta_a, arrays_a), (meta_b, arrays_b) = a.binary_state(), b.binary_state()
    return meta_a == meta_b and arrays_a.keys() == arrays_b.keys() and all(
        np.array_equal(arrays_a[key], arrays_b[key]) for key in arrays_a
    )


def _same_sizes(a, b) -> bool:
    return a.n_events == b.n_events and a.n_users() == b.n_users()


def _note_polish(job: Job, n_active: int, n_removed: int, rounds: int) -> None:
    """Polish counts, derived from the call's return value and sizes.

    Against fixed references the flat test is a per-user predicate, so
    every flat user goes in the first round and each later round re-tests
    the survivors and removes nobody; rows follow from that.  A round
    removed someone when it was the first round of a crowd with bots, or
    when the loop ran into its cap.
    """
    if n_removed == 0:
        useful = 0
    elif rounds < POLISH_MAX_ROUNDS:
        useful = rounds - 1
    else:
        useful = rounds
    job.counts["flatness.rounds"] += rounds
    job.counts["flatness.useful_rounds"] += useful
    job.counts["flatness.users_removed"] += n_removed
    job.counts["emd.rows"] += n_active + (rounds - 1) * (n_active - n_removed)
    job.counts["emd.users"] += n_active


def _assemble(geolocator, name, survivors, placement, mixture, assignments, **sizes):
    """Crowd profile, Pearson, fit metrics and the report, as the pipeline does."""
    crowd_profile = survivors.crowd_profile()
    return GeolocationReport(
        crowd_name=name,
        crowd_profile=crowd_profile,
        pearson_vs_generic=pearson(
            crowd_profile,
            geolocator.references.for_zone(placement.mode_offset()),
        ),
        placement=placement,
        mixture=mixture,
        fit_metrics=fit_distance_metrics(placement, mixture.components),
        user_zones=assignments,
        **sizes,
    )


def _mixture(geolocator, placement, job: Job):
    with job.span("em.mixture"):
        return select_mixture(
            placement,
            max_components=geolocator.max_components,
            sigma_init=geolocator.sigma_init,
            min_weight=geolocator.min_component_weight,
            criterion=geolocator.criterion,
        )


def _place_and_fit(geolocator, survivors, job: Job):
    with job.span("placement.place"):
        assignments, placement = place_profile_matrix(
            survivors, geolocator.references, metric=geolocator.metric
        )
    job.counts["emd.rows"] += len(survivors)
    return assignments, placement, _mixture(geolocator, placement, job)


def staged_geolocate(geolocator, traces, name: str, job: Job):
    """``CrowdGeolocator.geolocate`` one public function at a time."""
    with job.span("quality.validate"):
        assert_traces_clean(traces)
    with job.span("batch.profile_build"):
        active = traces.with_min_posts(geolocator.min_posts)
        matrix = ProfileMatrix.from_trace_set(active)
    with job.span("flatness.polish"):
        survivors, removed, rounds = polish_profile_matrix(
            matrix, geolocator.references, metric=geolocator.metric
        )
        crowd = active.without_users(removed) if removed else active
    _note_polish(job, len(matrix), len(removed), rounds)
    assignments, placement, mixture = _place_and_fit(geolocator, survivors, job)
    with job.span("geolocate.assemble"):
        return _assemble(
            geolocator, name, survivors, placement, mixture, assignments,
            n_users=len(crowd), n_posts=crowd.total_posts(), n_removed_flat=len(removed),
        )


def staged_geolocate_store(geolocator, store, name: str, job: Job):
    """``CrowdGeolocator.geolocate_store`` one public function at a time."""
    with job.span("batch.from_store"):
        matrix = ProfileMatrix.from_store(store, min_posts=geolocator.min_posts)
    with job.span("flatness.polish"):
        survivors, removed, rounds = polish_profile_matrix(
            matrix, geolocator.references, metric=geolocator.metric
        )
    _note_polish(job, len(matrix), len(removed), rounds)
    assignments, placement, mixture = _place_and_fit(geolocator, survivors, job)
    with job.span("geolocate.assemble"):
        kept = set(survivors.user_ids)
        n_posts = int(
            sum(
                int(length)
                for user_id, length in zip(store.user_ids(), store.lengths())
                if user_id in kept
            )
        )
        return _assemble(
            geolocator, name, survivors, placement, mixture, assignments,
            n_users=len(survivors), n_posts=n_posts, n_removed_flat=len(removed),
        )


def staged_geolocate_sharded(geolocator, store, name: str, n_shards: int, job: Job):
    """``CrowdGeolocator.geolocate_store_sharded`` one public function at a time."""
    workers = worker_count()
    with job.span("shard.fanout"):
        cpu_before, start = children_cpu_s(), perf_counter()
        partials = compute_partials(
            store,
            geolocator.references,
            metric=geolocator.metric,
            min_posts=geolocator.min_posts,
            n_shards=n_shards,
            max_workers=workers,
        )
        fanout_s, cpu_s = perf_counter() - start, children_cpu_s() - cpu_before
    with job.check():
        job.counts["shard.fanout_wall_s"] += fanout_s
        job.counts["shard.worker_cpu_s"] += cpu_s
        job.counts["shard.worker_slots_s"] += fanout_s * min(workers, len(partials))
        job.counts["shard.result_bytes"] += len(pickle.dumps(partials))
    with job.span("shard.merge"):
        merged = merge_partials(partials)
    # Each partial runs two distance passes over its active users: the
    # flat-profile mask and the nearest zone.
    job.counts["emd.rows"] += 2 * len(merged)
    job.counts["emd.users"] += len(merged)
    with job.span("shard.assemble"):
        matrix = ProfileMatrix.from_counts(merged.user_ids, merged.counts)
        keep = ~merged.flat_mask
        survivors = matrix.select(keep)
        zone_indices = merged.zone_indices[keep]
        assignments = {
            user_id: ZONE_OFFSETS[int(index)]
            for user_id, index in zip(survivors.user_ids, zone_indices)
        }
        zone_counts = np.bincount(zone_indices, minlength=len(ZONE_OFFSETS)).astype(float)
        placement = PlacementDistribution(
            tuple((zone_counts / zone_counts.sum()).tolist()), n_users=len(survivors)
        )
        mixture = _mixture(geolocator, placement, job)
        return _assemble(
            geolocator, name, survivors, placement, mixture, assignments,
            n_users=len(survivors),
            n_posts=int(merged.lengths[keep].sum()),
            n_removed_flat=int(merged.flat_mask.sum()),
        )


def _read_registry_counts(job: Job, registry) -> None:
    job.counts["em.iterations"] += registry.counter("repro_core_em_iterations_total").value
    job.counts["em.stall_cutoffs"] += registry.counter(
        "repro_core_em_stall_cutoffs_total"
    ).value


class Workload:
    """Common shape: seeded inputs under *workdir*, a job, an accuracy."""

    name = ""

    def __init__(self, seed: int, workdir: Path, sizes=None) -> None:
        self.seed = seed
        self.workdir = Path(workdir)
        self.sizes = sizes if sizes is not None else self.default_sizes()
        self.accuracy: float | None = None
        self.setup_times: list[float] = []

    def prepare(self) -> None:
        """Untimed work between set-up and measurement (oracles)."""

    def config(self) -> dict:
        return {"workload": self.name, "sizes": asdict(self.sizes)}

    def geolocator(self):
        return CrowdGeolocator(ReferenceProfiles.canonical())

    def job(self, job: Job) -> None:
        """One job; traced jobs run under a live metrics registry."""
        if not job.traced:
            self.run(job)
            return
        with use_registry(MetricsRegistry()) as registry:
            self.run(job)
        _read_registry_counts(job, registry)


class Census(Workload):
    """Many forum-sized crowds, one ``geolocate`` call each."""

    name = "census"
    default_sizes = gen.CensusSizes

    def setup(self) -> None:
        self.crowds = gen.build_census(self.seed, self.sizes)
        self.locator = self.geolocator()
        smallest = min(self.crowds, key=lambda crowd: crowd.n_posts)
        self.locator.geolocate(smallest.traces, crowd_name=smallest.name)
        self.oracle: dict = {}

    def prepare(self) -> None:
        """The staged reports every verdict of the run is compared with."""
        scratch = Job()
        self.oracle = {
            crowd.name: staged_geolocate(self.locator, crowd.traces, crowd.name, scratch)
            for crowd in self.crowds
        }

    def run(self, job: Job) -> None:
        reports = []
        for crowd in self.crowds:
            with job.timed(("geolocate", crowd.name), verdict=True, events=crowd.n_posts):
                if job.traced:
                    report = staged_geolocate(self.locator, crowd.traces, crowd.name, job)
                else:
                    report = self.locator.geolocate(crowd.traces, crowd_name=crowd.name)
            with job.check():
                job.verify(
                    same_report(report, self.oracle[crowd.name]),
                    f"{crowd.name}: geolocate() differs from the staged pipeline",
                )
                reports.append(report)
        with job.check():
            if self.accuracy is None:
                self.accuracy = census_accuracy(self.crowds, reports)


def census_accuracy(crowds, reports) -> float:
    """Crowds with the true component count, each within 1 h of a true zone."""
    hits = 0
    for crowd, report in zip(crowds, reports):
        means = [component.mean for component in report.mixture.components]
        hits += (
            len(means) == len(crowd.zones)
            and all(min(gen.circular_gap(m, z) for z in crowd.zones) <= 1.0 for m in means)
            and all(min(gen.circular_gap(m, z) for m in means) <= 1.0 for z in crowd.zones)
        )
    return hits / len(crowds)


def user_accuracy(truth: "gen.StoreTruth", zone_of) -> float:
    """Non-bot users whose placed zone is within 2 h of their true zone."""
    humans = [
        (user_id, int(zone))
        for user_id, zone, bot in zip(truth.user_ids, truth.zones, truth.bots)
        if not bot
    ]
    return sum(_within(zone_of(user_id), zone, 2.0) for user_id, zone in humans) / len(humans)


def _within(placed: int | None, zone: int, hours: float) -> bool:
    return placed is not None and gen.circular_gap(placed, zone) <= hours


def _zone_reader(engine):
    """user id -> the engine's current placed zone offset (None if unplaced)."""

    def zone_of(user_id):
        index = engine.zone_index_of(user_id)
        return None if index is None else ZONE_OFFSETS[index]

    return zone_of


def checkpoint_round_trip(workdir: Path, engine, job: Job, compare, tag) -> None:
    """Save *engine*, load it back and check the copy with *compare*."""
    path = workdir / "engine-checkpoint.npz"
    with job.timed(("checkpoint.save", tag)), job.span("streaming.checkpoint_save"):
        engine.save_checkpoint(path)
    with job.timed(("checkpoint.load", tag)), job.span("streaming.checkpoint_load"):
        restored = StreamingGeolocator.load_checkpoint(path)
    with job.check():
        job.sample("checkpoint_bytes", os.path.getsize(path))
        job.verify(compare(restored, engine), "checkpoint reload changed the state")
        del restored  # freeing the copy is the benchmark's cost, not the program's


class StoreReplay(Workload):
    """Every out-of-core command over one columnar store.

    A job opens the store and runs ``geolocate_store`` and
    ``geolocate_store_sharded(n_shards=8)`` (the two ``darkcrowd geolocate
    --store`` paths), then backfills a streaming engine from it with
    ``ingest_store`` (``darkcrowd replay --store``), takes the cold
    snapshot and round-trips a checkpoint.  Its three verdicts are the two
    store reports and the cold snapshot.
    """

    name = "store_replay"
    default_sizes = gen.StoreSizes
    n_shards = 8

    def setup(self) -> None:
        self.store_path = self.workdir / "crowd.store"
        self.truth = gen.write_store(self.seed, self.store_path, self.sizes)
        self.reference = self.reference_snapshot = None
        warm = self.workdir / "warm.store"
        gen.write_store(self.seed, warm, gen.StoreSizes(n_users=2_000))
        self.geolocate(warm, Job())
        self.replay(warm, Job())
        shutil.rmtree(warm)
        self.reference_snapshot = None  # the warm-up's verdict is not the run's

    def run(self, job: Job) -> None:
        oracle, sharded = self.geolocate(self.store_path, job)
        with job.check():
            job.verify(same_store_verdict(oracle, sharded), "oracle and sharded verdicts differ")
            if self.reference is None:
                self.reference = oracle
                self.accuracy = user_accuracy(self.truth, oracle.user_zones.get)
            job.verify(
                same_report(oracle, self.reference) and same_report(sharded, self.reference),
                "store verdict differs from the run's first verdict",
            )
        self.replay(self.store_path, job)

    def geolocate(self, path: Path, job: Job):
        locator = self.geolocator()
        with job.timed("store.oracle", verdict=True):
            with job.span("store.open"):
                store = TraceStore.open(path)
            if job.traced:
                oracle = staged_geolocate_store(locator, store, self.name, job)
            else:
                oracle = locator.geolocate_store(store, crowd_name=self.name)
        with job.timed("store.sharded", verdict=True):
            if job.traced:
                sharded = staged_geolocate_sharded(locator, store, self.name, self.n_shards, job)
            else:
                sharded = locator.geolocate_store_sharded(
                    store, crowd_name=self.name, n_shards=self.n_shards, max_workers=worker_count()
                )
        return oracle, sharded

    def replay(self, path: Path, job: Job) -> None:
        # Each ingested chunk is timed on its own, from the previous chunk's
        # end (or the call's start) to its own; the last one runs to the
        # call's return.
        ticks: list[tuple[int, float]] = []

        def on_chunk(total: int, newest: float) -> None:
            ticks.append((total, perf_counter()))

        start = perf_counter()
        with job.span("store.open"):
            store = TraceStore.open(path)
        engine = StreamingGeolocator()
        with job.span("streaming.ingest_store"):
            ingested = engine.ingest_store(store, on_chunk=on_chunk)
        ticks[-1] = (ticks[-1][0], perf_counter())
        with job.timed("replay.snapshot", verdict=True), job.span("streaming.snapshot_cold"):
            snapshot = engine.snapshot()
        first = self.reference_snapshot is None
        # state_dict() of a large engine takes seconds; the first job
        # compares the same state in its columnar form, later jobs compare
        # sizes here and their verdict with the first job's below.
        checkpoint_round_trip(
            self.workdir, engine, job, _same_binary_state if first else _same_sizes, "replay"
        )
        with job.check():
            done, last = 0, start
            for chunk, (total, at) in enumerate(ticks):
                job.add(("replay.chunk", chunk), at - last, events=total - done)
                job.sample("chunk_gap_s", at - last)
                done, last = total, at
            job.counts["streaming.events"] += ingested
            job.verify(ingested == store.total_posts(), "ingested events != store posts")
            if first:
                job.verify(
                    same_snapshot(snapshot, engine.snapshot_reference()),
                    "cold snapshot differs from snapshot_reference()",
                )
                self.reference_snapshot = snapshot
            job.verify(same_snapshot(snapshot, self.reference_snapshot), "replay verdict changed")


class MonitorDrift(Workload):
    """``darkcrowd monitor`` over one live forum where a fifth of users move.

    Hourly polls go through ``observe_events`` with drift on, one
    ``snapshot()`` per stream day (the job's verdicts), a checkpoint round
    trip every 30 days.
    """

    name = "monitor_drift"
    default_sizes = gen.MonitorSizes

    def setup(self) -> None:
        self.stream = gen.build_monitor_stream(self.seed, self.sizes)
        largest = max(len(poll) for polls in self.stream.days for poll in polls)
        if largest >= BATCH_OBSERVE_THRESHOLD:
            raise ValueError(f"a poll of {largest} events would leave the per-event path")
        self.monitor(self.stream.days[:1], Job())

    def run(self, job: Job) -> None:
        accuracy = self.monitor(self.stream.days, job)
        if self.accuracy is None:
            self.accuracy = accuracy

    def monitor(self, days: list, job: Job) -> float:
        """Run the campaign over *days*; returns the users placed within 2 h."""
        engine = StreamingGeolocator(drift=DriftConfig())
        every = self.sizes.checkpoint_every_days
        for day, polls in enumerate(days, start=1):
            with job.timed(("monitor.observe", day), events=sum(map(len, polls))):
                for poll in polls:
                    with job.span("streaming.observe"):
                        engine.observe_events(poll)
            if job.traced:
                with job.span("streaming.heartbeat"):
                    job.sample("dirty_per_snapshot", engine.heartbeat()["dirty_users"])
            with job.timed(("monitor.snapshot", day), verdict=True):
                with job.span("streaming.snapshot"):
                    snapshot = engine.snapshot()
            job.verify(snapshot.has_verdict() or day < every, f"no verdict on day {day}")
            if day % every == 0:
                checkpoint_round_trip(
                    self.workdir, engine, job, lambda a, b: a.state_dict() == b.state_dict(), day
                )
        with job.check():
            job.verify(
                same_snapshot(snapshot, engine.snapshot_reference()),
                "final snapshot differs from snapshot_reference()",
            )
            job.counts["streaming.events"] += engine.n_events
            for event in engine.migrations:
                job.counts[f"drift.migrations_{event.reason.replace('-', '_')}"] += 1
            job.sample("stale_ratio", engine.heartbeat().get("stale_ratio", 0.0))
            zone_of = _zone_reader(engine)
            accuracy = sum(
                _within(zone_of(user), zone, 2.0) for user, zone in self.stream.true_zone.items()
            ) / len(self.stream.true_zone)
            job.sample("monitor_accuracy", accuracy)
        return accuracy


WORKLOADS = {
    workload.name: workload
    for workload in (Census, StoreReplay, MonitorDrift)
}
