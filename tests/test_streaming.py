"""Streaming geolocation and the convergence experiment."""

from __future__ import annotations

import numpy as np

from repro.analysis.streaming_experiments import run_convergence_experiment
from repro.core.events import PostEvent
from repro.core.streaming import StreamingGeolocator
from repro.reliability.clocks import frozen_wall_clock
from repro.synth.twitter import build_region_crowd


class TestStreamingGeolocator:
    def test_no_verdict_before_evidence(self, references):
        stream = StreamingGeolocator(references)
        stream.observe("u", 1000.0)
        snapshot = stream.snapshot()
        assert not snapshot.has_verdict()
        assert np.isnan(snapshot.dominant_mean())
        assert snapshot.n_events_seen == 1
        assert snapshot.n_users_seen == 1

    def test_matches_batch_pipeline(self, references):
        crowd = build_region_crowd("malaysia", 50, seed=21, n_days=366)
        stream = StreamingGeolocator(references)
        for trace in crowd:
            for timestamp in trace.timestamps:
                stream.observe(trace.user_id, float(timestamp))
        snapshot = stream.snapshot()
        assert snapshot.has_verdict()
        assert abs(snapshot.dominant_mean() - 8.0) <= 1.2

    def test_incremental_profile_equals_batch_profile(self, references):
        from repro.core.profiles import build_user_profile

        crowd = build_region_crowd("japan", 3, seed=5, n_days=200)
        stream = StreamingGeolocator(references, min_posts=1)
        for trace in crowd:
            for timestamp in trace.timestamps:
                stream.observe(trace.user_id, float(timestamp))
        profiles = stream.active_profiles()
        for trace in crowd:
            if trace.user_id in profiles:
                assert profiles[trace.user_id] == build_user_profile(trace)

    def test_observe_events(self, references):
        stream = StreamingGeolocator(references)
        stream.observe_events(
            [PostEvent(100.0, "a"), PostEvent(200.0, "a"), PostEvent(300.0, "b")]
        )
        assert stream.n_events == 3
        assert stream.n_users() == 2

    def test_threshold_gates_activity(self, references):
        stream = StreamingGeolocator(references, min_posts=5)
        for index in range(4):
            stream.observe("u", index * 86400.0 + 20 * 3600.0)
        assert stream.active_profiles() == {}
        stream.observe("u", 4 * 86400.0 + 20 * 3600.0)
        assert "u" in stream.active_profiles()

    def test_flat_users_filtered(self, references, rng):
        stream = StreamingGeolocator(references, min_posts=30)
        # A bot posting at uniformly random hours.
        for index in range(400):
            stream.observe("bot", float(rng.uniform(0, 366 * 86400.0)))
        assert "bot" not in stream.active_profiles()


class TestConvergence:
    def test_verdict_appears_and_stabilises(self, context):
        rows = run_convergence_experiment(
            context, checkpoint_days=(7, 60, 366), scale=0.6
        )
        by_day = {row.day: row for row in rows}
        assert not by_day[7].has_verdict
        assert by_day[366].has_verdict
        assert by_day[366].n_users_active > by_day[60].n_users_active

    def test_events_monotone(self, context):
        rows = run_convergence_experiment(
            context, checkpoint_days=(30, 120, 366), scale=0.4
        )
        counts = [row.n_events for row in rows]
        assert counts == sorted(counts)


class TestIncrementalSnapshots:
    """The dirty-set fast path must be indistinguishable from a cold run."""

    def _mixed_events(self, n_users=60, seed=13):
        rng = np.random.default_rng(seed)
        events = []
        for i in range(n_users):
            zone = int(rng.integers(-11, 13)) if i % 2 else 8
            days = rng.integers(0, 90, size=45)
            hours = rng.normal(14.0 - zone, 2.5, size=45) % 24
            for stamp in days * 86400.0 + hours * 3600.0:
                events.append((f"u{i:03d}", float(stamp)))
        rng.shuffle(events)
        return events

    def _assert_matches_reference(self, stream):
        warm = stream.snapshot()
        cold = stream.snapshot_reference()
        assert warm.n_users_active == cold.n_users_active
        assert warm.placement == cold.placement
        assert (
            np.isnan(warm.dominant_mean())
            and np.isnan(cold.dominant_mean())
        ) or warm.dominant_mean() == cold.dominant_mean()

    def test_snapshot_equals_cold_reference_throughout(self, references):
        events = self._mixed_events()
        stream = StreamingGeolocator(references)
        step = len(events) // 5
        for start in range(0, len(events), step):
            for user_id, stamp in events[start : start + step]:
                stream.observe(user_id, stamp)
            self._assert_matches_reference(stream)

    def test_interleaved_checkpoint_restore_stays_exact(
        self, references, tmp_path
    ):
        events = self._mixed_events(n_users=40, seed=7)
        stream = StreamingGeolocator(references)
        third = len(events) // 3
        for user_id, stamp in events[:third]:
            stream.observe(user_id, stamp)
        self._assert_matches_reference(stream)

        stream.save_checkpoint(tmp_path / "mid.npz")
        stream = StreamingGeolocator.load_checkpoint(
            tmp_path / "mid.npz", references=references
        )
        for user_id, stamp in events[third : 2 * third]:
            stream.observe(user_id, stamp)
        self._assert_matches_reference(stream)

        stream.save_checkpoint(tmp_path / "mid.json")
        stream = StreamingGeolocator.load_checkpoint(
            tmp_path / "mid.json", references=references
        )
        for user_id, stamp in events[2 * third :]:
            stream.observe(user_id, stamp)
        self._assert_matches_reference(stream)
        assert stream.n_events == len(events)

    def test_snapshot_exposes_placement(self, references):
        crowd = build_region_crowd("malaysia", 30, seed=21, n_days=366)
        stream = StreamingGeolocator(references)
        for trace in crowd:
            for timestamp in trace.timestamps:
                stream.observe(trace.user_id, float(timestamp))
        snapshot = stream.snapshot()
        assert snapshot.placement is not None
        assert snapshot.placement.n_users == snapshot.n_users_active
        assert abs(sum(snapshot.placement.fractions) - 1.0) < 1e-9

    def test_dirty_set_tracks_new_cells_only(self, references):
        stream = StreamingGeolocator(references, min_posts=2)
        stream.observe("u", 20 * 3600.0)
        stream.observe("u", 86400.0 + 20 * 3600.0)
        assert stream.n_dirty() == 1
        stream.snapshot()
        assert stream.n_dirty() == 0
        # Same (day, hour) cell again: profile unchanged, nothing dirty.
        stream.observe("u", 86400.0 + 20 * 3600.0 + 120.0)
        assert stream.n_dirty() == 0
        # A fresh cell makes the user dirty again.
        stream.observe("u", 2 * 86400.0 + 9 * 3600.0)
        assert stream.n_dirty() == 1

    def test_idle_snapshot_does_no_replacement_work(self, references):
        crowd = build_region_crowd("japan", 20, seed=3, n_days=366)
        stream = StreamingGeolocator(references)
        for trace in crowd:
            for timestamp in trace.timestamps:
                stream.observe(trace.user_id, float(timestamp))
        first = stream.snapshot()
        assert stream.n_dirty() == 0
        second = stream.snapshot()
        assert second.placement == first.placement
        assert second.dominant_mean() == first.dominant_mean()

    def test_invalidate_all_reproduces_same_answer(self, references):
        crowd = build_region_crowd("brazil", 25, seed=9, n_days=366)
        stream = StreamingGeolocator(references)
        for trace in crowd:
            for timestamp in trace.timestamps:
                stream.observe(trace.user_id, float(timestamp))
        warm = stream.snapshot()
        stream.invalidate_all()
        assert stream.n_dirty() == stream.n_users()
        cold = stream.snapshot()
        assert cold.placement == warm.placement


class TestHeartbeat:
    """The observatory's gauge surface: cheap, deterministic, drift-aware."""

    def _fill(self, stream, n_users=5, n_days=30):
        crowd = build_region_crowd("japan", n_users, seed=3, n_days=n_days)
        for trace in crowd:
            for timestamp in trace.timestamps:
                stream.observe(trace.user_id, float(timestamp))

    def test_counts_and_snapshot_lag(self, references):
        stream = StreamingGeolocator(references)
        self._fill(stream)
        beat = stream.heartbeat()
        assert beat["events_total"] == float(stream.n_events)
        assert beat["users_seen"] == float(stream.n_users())
        assert beat["dirty_users"] == float(stream.n_dirty())
        assert beat["migrations_total"] == 0.0
        # no snapshot or checkpoint yet: everything ingested is lag
        assert beat["snapshot_lag_events"] == beat["events_total"]
        assert beat["checkpoint_lag_events"] == beat["events_total"]
        assert beat["users_placed"] == 0.0  # histogram fills at refresh

        stream.snapshot()
        beat = stream.heartbeat()
        assert beat["snapshot_lag_events"] == 0.0
        assert beat["users_placed"] > 0.0
        stream.observe("late", 20 * 3600.0)
        assert stream.heartbeat()["snapshot_lag_events"] == 1.0

    def test_checkpoint_lag_and_age(self, references, tmp_path):
        stream = StreamingGeolocator(references)
        self._fill(stream, n_users=3)
        assert "checkpoint_age_s" not in stream.heartbeat()
        with frozen_wall_clock(1000.0):
            stream.save_checkpoint(tmp_path / "c.npz")
        with frozen_wall_clock(1007.0):
            beat = stream.heartbeat()
        assert beat["checkpoint_lag_events"] == 0.0
        assert beat["checkpoint_age_s"] == 7.0

    def test_drift_gauges_only_with_drift_enabled(self, references):
        plain = StreamingGeolocator(references)
        self._fill(plain)
        assert "stream_day" not in plain.heartbeat()
        assert "stale_ratio" not in plain.heartbeat()

        from repro.core.drift import DriftConfig

        drifting = StreamingGeolocator(references, drift=DriftConfig())
        self._fill(drifting, n_days=120)
        beat = drifting.heartbeat()
        assert beat["stream_day"] >= 100.0
        assert 0.0 <= beat["stale_ratio"] <= 1.0
        assert 0.0 <= beat["confidence_min"] <= beat["confidence_mean"] <= 1.0

    def test_heartbeat_mutates_nothing(self, references):
        stream = StreamingGeolocator(references)
        self._fill(stream)
        before = stream.heartbeat()
        assert stream.heartbeat() == before
        assert stream.n_dirty() > 0  # no hidden refresh happened
