"""Temporal-drift robustness: confidence lifecycle, change-points, events.

Covers the drift layer end to end -- unit behaviour of the config and
confidence primitives, the batched change-day scan against the per-day
loop it replaced, the check's evidence floors, the acceptance scenario
(20% of a crowd relocating +6 h mid-stream), the DST negative control,
the drift-off inertness invariant, checkpoint schema negotiation across
versions 1 and 2, and the frozen lifecycle record of
``tests/drift_fixtures.py``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from drift_fixtures import FIXTURE_PATH, SCENARIOS, render, replay
from hypothesis import given, settings, strategies as st

from repro.analysis.streaming_experiments import run_drift_experiment
from repro.core.drift import (
    ChangePointDetector,
    CompositionTimeline,
    DriftConfig,
    UserConfidence,
    decayed_confidence,
)
from repro.core.emd import ALL_DISTANCES
from repro.core.streaming import (
    _NO_DAY,
    STREAM_CHECKPOINT_KIND,
    EMPTY_STREAM,
    UNDER_EVIDENCED,
    VERDICT,
    StreamingGeolocator,
    _scan_splits,
    _UserTable,
)
from repro.errors import CheckpointError, EmptyTraceError
from repro.reliability import read_checkpoint
from repro.synth.drift import (
    build_dst_scenario,
    build_relocation_scenario,
    build_server_offset_scenario,
)
from repro.synth.twitter import build_region_crowd
from repro.timebase.clock import SECONDS_PER_DAY
from repro.timebase.zones import ZONE_OFFSETS

pytestmark = pytest.mark.drift


def _stream(engine: StreamingGeolocator, scenario, *, snapshot_every: int = 7):
    next_snapshot = None
    for timestamp, user_id in scenario.sorted_events():
        day = int(timestamp // SECONDS_PER_DAY)
        if next_snapshot is None:
            next_snapshot = day + snapshot_every
        elif day >= next_snapshot:
            engine.snapshot()
            next_snapshot = day + snapshot_every
        engine.observe(user_id, timestamp)
    return engine.snapshot()


class TestDriftConfig:
    def test_defaults_validate_and_round_trip(self):
        config = DriftConfig()
        assert DriftConfig.from_dict(config.as_dict()) == config

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_days": 0},
            {"check_interval_days": 0},
            {"emd_threshold": -1.0},
            {"screen_threshold": 5.0},  # above emd_threshold
            {"confidence_threshold": 1.5},
            {"decay_per_day": -0.1},
            {"min_reestimate_cells": 4},  # below min_window_cells
            {"metric": "nosuch"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            DriftConfig(**kwargs)


class TestUserConfidence:
    def test_decays_linearly_and_clamps(self):
        confidence = UserConfidence(1.0, as_of_day=10)
        assert confidence.effective(10, 0.01) == pytest.approx(1.0)
        assert confidence.effective(60, 0.01) == pytest.approx(0.5)
        assert confidence.effective(10_000, 0.01) == 0.0

    def test_reset_restores_full_confidence(self):
        confidence = UserConfidence(0.2, as_of_day=0)
        confidence.reset(42)
        assert confidence.value == 1.0
        assert confidence.as_of_day == 42

    def test_column_decay_matches_the_scalar_clamp(self):
        values = np.array([1.0, 0.3, 1.5, -0.5, -0.0, np.nan, np.inf, -np.inf, 0.9])
        days = np.array([0, 5, 40, 40, 40, 40, 40, 40, 60])
        decayed = decayed_confidence(values, days, 50, 0.01)
        # The clamp min(1.0, max(0.0, x)) of each record, NaN read as 0.0.
        expected = np.array(
            [
                min(1.0, max(0.0, value - 0.01 * max(0, 50 - day)))
                for value, day in zip(values.tolist(), days.tolist())
            ]
        )
        assert expected[5] == 0.0
        assert np.array_equal(decayed.view(np.int64), expected.view(np.int64))
        for value, day, column in zip(values.tolist(), days.tolist(), decayed):
            assert UserConfidence(value, day).effective(50, 0.01) == column


class TestChangePointDetector:
    def test_shifted_profile_scores_above_threshold(self):
        config = DriftConfig()
        detector = ChangePointDetector(config)
        history = np.zeros(24)
        history[8:16] = 10.0
        window = np.roll(history, 6)
        assert detector.score(window, history) > config.emd_threshold
        assert detector.score(history, history) == pytest.approx(0.0)

    def test_split_score_discounts_thin_sides(self):
        config = DriftConfig()
        detector = ChangePointDetector(config)
        history = np.zeros(24)
        history[8:16] = 100.0
        shifted = np.roll(history, 6)
        thin = shifted / 100.0 * 6.0  # six cells only
        scores = detector.split_scores(np.stack([thin, shifted]), np.stack([history] * 2))
        assert scores[0] < detector.score(thin, history)
        # Both sides past 2.5 * min_reestimate_cells: no discount.
        assert scores[1] == detector.score(shifted, history)


def _hour_counts(mask: int) -> np.ndarray:
    return np.array([(mask >> hour) & 1 for hour in range(24)], dtype=float)


def _split_score_oracle(detector, prefix, suffix) -> float:
    """One split's size-discounted score, as the scalar scorer computed it."""
    thin_side = float(min(prefix.sum(), suffix.sum()))
    full_evidence = 2.5 * detector.config.min_reestimate_cells
    discount = min(1.0, float(np.sqrt(thin_side / full_evidence)))
    return detector.score(prefix, suffix) * discount


def _scan_splits_oracle(detector, bits, total):
    """The per-day change-day loop :func:`_scan_splits` batches."""
    active_days = sorted(bits)
    min_side = float(max(8, detector.config.min_reestimate_cells // 2))
    prefix = np.zeros(24)
    best_day, best_score = active_days[0], -1.0
    for day in active_days[:-1]:
        prefix = prefix + _hour_counts(bits[day])
        suffix = total - prefix
        if prefix.sum() < min_side or suffix.sum() < min_side:
            continue
        score = _split_score_oracle(detector, prefix, suffix)
        if score > best_score:
            best_score, best_day = score, day + 1
    return best_day, best_score


def _total(bits) -> np.ndarray:
    return sum((_hour_counts(mask) for mask in bits.values()), np.zeros(24))


_SPARSE_MASK = st.sets(st.integers(0, 23), min_size=1, max_size=3).map(
    lambda hours: sum(1 << hour for hour in hours)
)
_MASK = st.one_of(_SPARSE_MASK, st.integers(1, 2**24 - 1))
#: Day -> hour mask records with gaps between active days.
_RECORDS = st.dictionaries(st.integers(0, 400), _MASK, min_size=1, max_size=60)


class TestBatchedSplitScan:
    """``_scan_splits`` and ``split_scores`` against the per-day loop."""

    @pytest.mark.parametrize("metric", sorted(ALL_DISTANCES))
    @given(bits=_RECORDS, reestimate=st.integers(12, 60))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_per_day_loop(self, metric, bits, reestimate):
        detector = ChangePointDetector(
            DriftConfig(metric=metric, min_reestimate_cells=reestimate)
        )
        total = _total(bits)
        expected = _scan_splits_oracle(detector, bits, total)
        assert repr(_scan_splits(detector, bits, total)) == repr(expected)

    def test_linear_metric_takes_the_row_wise_path(self):
        detector = ChangePointDetector(DriftConfig())

        def refuse(p, q):
            raise AssertionError("the linear metric must not map the 1-D distance")

        detector._distance = refuse
        rng = np.random.default_rng(0)
        prefix, suffix = rng.integers(1, 9, (2, 50, 24)).astype(float)
        assert detector.split_scores(prefix, suffix).shape == (50,)

    @pytest.mark.parametrize("metric", sorted(ALL_DISTANCES))
    def test_one_active_day_has_no_split(self, metric):
        detector = ChangePointDetector(DriftConfig(metric=metric))
        bits = {17: 2**24 - 1}
        assert _scan_splits(detector, bits, _total(bits)) == (17, -1.0)

    @pytest.mark.parametrize("metric", sorted(ALL_DISTANCES))
    def test_no_qualifying_split_scores_minus_one_at_the_first_day(self, metric):
        detector = ChangePointDetector(DriftConfig(metric=metric))
        # 20 cells over gapped days: no split leaves 12 on both sides.
        bits = {3 + 5 * day: 0b11 << day for day in range(10)}
        assert _scan_splits(detector, bits, _total(bits)) == (3, -1.0)
        assert _scan_splits_oracle(detector, bits, _total(bits)) == (3, -1.0)

    @pytest.mark.parametrize("metric", sorted(ALL_DISTANCES))
    def test_exact_ties_go_to_the_first_day(self, metric):
        detector = ChangePointDetector(DriftConfig(metric=metric))
        early, late = 2**12 - 1, (2**12 - 1) << 12
        # A palindromic record: splitting after day 0 and after day 2
        # give mirrored sides, hence bit-equal scores.
        bits = {0: early, 1: late, 2: late, 3: early}
        total = _total(bits)
        prefix = np.array([_hour_counts(early), total - _hour_counts(early)])
        scores = detector.split_scores(prefix, total - prefix)
        assert scores[0] == scores[1] > 0.0
        expected = _scan_splits_oracle(detector, bits, total)
        assert expected == (1, float(scores[0]))
        assert repr(_scan_splits(detector, bits, total)) == repr(expected)

    @pytest.mark.parametrize("metric", sorted(ALL_DISTANCES))
    def test_records_longer_than_255_days(self, metric):
        detector = ChangePointDetector(DriftConfig(metric=metric))
        rng = np.random.default_rng(7)
        # Hour 9 is active on all 400 days: its prefix count passes 255.
        bits = {
            day: (1 << 9) | (int(rng.integers(1, 2**8)) << (4 if day < 280 else 14))
            for day in range(400)
        }
        total = _total(bits)
        expected = _scan_splits_oracle(detector, bits, total)
        assert repr(_scan_splits(detector, bits, total)) == repr(expected)
        assert expected[1] > 0.0


class TestCheckGates:
    """The evidence floors decide on cell counts before any hour vector."""

    #: Small floors; checks run only when the test calls one, and one
    #: past the floors re-verifies (no decay, no change-point scan).
    CONFIG = DriftConfig(
        window_days=10,
        check_interval_days=10_000,
        screen_threshold=100.0,
        emd_threshold=100.0,
        decay_per_day=0.0,
        min_window_cells=6,
        min_reestimate_cells=12,
        min_history_cells=20,
    )

    def _engine(self, monkeypatch, cells_by_day, now_day):
        """An engine holding one user's record, and the check's recorders."""
        engine = StreamingGeolocator(min_posts=1, drift=self.CONFIG)
        for day, hours in sorted(cells_by_day.items()):
            for hour in hours:
                engine.observe("u", day * 86400.0 + hour * 3600.0)
        row = engine._table.index["u"]
        calls = {"vectors": 0, "scores": []}
        counts_of_bits = _UserTable.counts_of_bits

        def counting(bits_by_day):
            calls["vectors"] += 1
            return counts_of_bits(bits_by_day)

        monkeypatch.setattr(_UserTable, "counts_of_bits", staticmethod(counting))
        score = engine._detector.score

        def recording(window, history):
            calls["scores"].append((window.copy(), history.copy()))
            return score(window, history)

        engine._detector.score = recording
        engine._drift_check("u", row, now_day)
        assert engine._table.last_check[row] == now_day
        return engine, row, calls

    def test_thin_window_stops_before_any_vector(self, monkeypatch):
        # 30 history cells, 5 window cells (< 6), nothing to stretch to.
        cells = {0: range(10), 1: range(10), 2: range(10), 95: range(5)}
        engine, row, calls = self._engine(monkeypatch, cells, now_day=100)
        assert calls == {"vectors": 0, "scores": []}
        assert engine._table.conf_day[row] == 0  # not re-verified

    def test_thin_history_re_verifies_before_any_vector(self, monkeypatch):
        # 10 window cells, 15 history cells (< 20).
        cells = {40: range(15), 95: range(10)}
        engine, row, calls = self._engine(monkeypatch, cells, now_day=100)
        assert calls == {"vectors": 0, "scores": []}
        assert engine._table.conf_day[row] == 100

    def test_stretch_back_reaching_the_floor_scores_the_stretched_window(
        self, monkeypatch
    ):
        # 2 cells in the 10-day window; stretching back takes day 85 (2
        # more), then day 80 (3 more: 7 >= 6) and stops before day 75.
        cells = {0: range(24), 75: [1], 80: [2, 3, 4], 85: [5, 6], 95: [7, 8]}
        engine, row, calls = self._engine(monkeypatch, cells, now_day=100)
        assert calls["vectors"] == 1
        [(window, history)] = calls["scores"]
        expected = np.zeros(24)
        expected[2:9] = 1.0
        assert np.array_equal(window, expected)
        assert np.array_equal(history, engine._table.counts[row] - expected)
        assert engine._table.conf_day[row] == 100

    def test_stretch_back_missing_the_floor_stops(self, monkeypatch):
        # Days 70-95 hold 5 cells; day 50 lies past the 4x-window limit
        # (day 61), so the window never reaches 6 cells.
        cells = {0: range(24), 50: range(10), 70: [1, 2], 85: [3], 95: [4, 5]}
        engine, row, calls = self._engine(monkeypatch, cells, now_day=100)
        assert calls == {"vectors": 0, "scores": []}
        assert engine._table.conf_day[row] == 0


class TestEmptyStreamSentinel:
    """Regression: a pre-observe snapshot is not just 'under-evidenced'."""

    def test_empty_stream_is_distinguished(self, references):
        stream = StreamingGeolocator(references)
        snapshot = stream.snapshot()
        assert snapshot.is_empty_stream()
        assert snapshot.verdict_state() == EMPTY_STREAM
        assert not snapshot.has_verdict()
        with pytest.raises(EmptyTraceError, match="empty stream"):
            snapshot.dominant_mean()

    def test_under_evidenced_still_returns_nan(self, references):
        stream = StreamingGeolocator(references)
        stream.observe("u", 1000.0)
        snapshot = stream.snapshot()
        assert not snapshot.is_empty_stream()
        assert snapshot.verdict_state() == UNDER_EVIDENCED
        assert np.isnan(snapshot.dominant_mean())

    def test_verdict_state_with_crowd(self, references):
        crowd = build_region_crowd("germany", 30, seed=3, n_days=200)
        stream = StreamingGeolocator(references)
        for trace in crowd:
            for timestamp in trace.timestamps:
                stream.observe(trace.user_id, float(timestamp))
        assert stream.snapshot().verdict_state() == VERDICT


class TestWarmColdInvariant:
    """snapshot() must equal snapshot_reference() under any interleaving."""

    def test_interleaved_observe_snapshot_invalidate(self, references):
        crowd = build_region_crowd("japan", 12, seed=9, n_days=240)
        events = sorted(
            (float(ts), trace.user_id)
            for trace in crowd
            for ts in trace.timestamps
        )
        stream = StreamingGeolocator(references)
        rng = np.random.default_rng(17)
        for i, (timestamp, user_id) in enumerate(events):
            stream.observe(user_id, timestamp)
            if rng.random() < 0.01:
                warm = stream.snapshot()
                cold = stream.snapshot_reference()
                assert warm.placement == cold.placement, f"diverged at event {i}"
            if rng.random() < 0.005:
                stream.invalidate_all()
        assert stream.snapshot().placement == stream.snapshot_reference().placement

    def test_drift_enabled_still_matches_reference(self):
        scenario = build_relocation_scenario(n_users=40, n_days=160, seed=3)
        engine = StreamingGeolocator(drift=DriftConfig())
        snapshot = _stream(engine, scenario)
        assert snapshot.placement == engine.snapshot_reference().placement

    def test_observe_after_invalidate_does_not_double_count(self, references):
        crowd = build_region_crowd("germany", 15, seed=4, n_days=120)
        stream = StreamingGeolocator(references)
        for trace in crowd:
            for timestamp in trace.timestamps:
                stream.observe(trace.user_id, float(timestamp))
        stream.snapshot()
        stream.invalidate_all()
        # More observations while everyone is already dirty: subtraction
        # of the stale contribution must happen exactly once per user.
        for trace in crowd:
            for timestamp in trace.timestamps[:5]:
                stream.observe(trace.user_id, float(timestamp) + 1.0)
        warm = stream.snapshot()
        cold = stream.snapshot_reference()
        assert warm.placement == cold.placement
        assert warm.placement is not None
        assert warm.placement.n_users == cold.placement.n_users


class TestDriftAcceptance:
    def test_relocation_scenario_meets_roadmap_bar(self):
        report = run_drift_experiment(seed=11)
        assert report.kind == "relocation"
        assert report.detection_rate >= 0.9
        assert report.correct_rate >= 0.9
        assert report.false_positive_rate < 0.05
        assert report.timeline_l1 < 0.15
        assert report.warm_equals_cold

    def test_migration_events_carry_evidence(self):
        scenario = build_relocation_scenario(n_users=60, n_days=240, seed=23)
        engine = StreamingGeolocator(drift=DriftConfig())
        seen = []
        engine.on_migration(seen.append)
        _stream(engine, scenario)
        assert seen == engine.migrations
        assert any(e.reason == "change-point" for e in seen)
        for event in seen:
            assert event.user_id in scenario.traces.user_ids()
            assert event.window_cells > 0
            assert 0.0 <= event.confidence <= 1.0
            assert event.record_version >= 1
            payload = event.to_dict()
            assert payload["reason"] in {"change-point", "confidence", "refine"}

    def test_refinement_converges_to_settled_zone(self):
        scenario = build_relocation_scenario(n_users=60, n_days=240, seed=23)
        engine = StreamingGeolocator(drift=DriftConfig())
        _stream(engine, scenario)
        last = {}
        for event in engine.migrations:
            last[event.user_id] = event
        for user_id, event in last.items():
            if user_id not in scenario.moved_ids or event.new_offset is None:
                continue
            index = engine.zone_index_of(user_id)
            if index is None:
                continue
            assert abs(event.new_offset - ZONE_OFFSETS[index]) <= 1

    def test_dst_is_a_negative_control(self):
        report = run_drift_experiment(
            build_dst_scenario(n_users=50, n_days=240, seed=5)
        )
        # Everyone "moved" one hour; almost nobody should fire.
        assert report.n_detected <= max(2, report.n_placed_movers // 10)

    def test_server_offset_shift_is_detected_crowd_wide(self):
        report = run_drift_experiment(
            build_server_offset_scenario(
                n_users=50, shift_hours=6, n_days=240, seed=13
            )
        )
        assert report.detection_rate >= 0.9
        assert report.warm_equals_cold


class TestDriftOffInertness:
    def test_disabled_drift_never_mutates_records(self):
        scenario = build_relocation_scenario(n_users=30, n_days=160, seed=8)
        plain = StreamingGeolocator()
        snapshot = _stream(plain, scenario)
        assert plain.migrations == []
        assert plain.timeline is None
        assert snapshot.confidence is None
        assert snapshot.placement == plain.snapshot_reference().placement


class TestCheckpointNegotiation:
    def _small_engine(self, drift=None):
        scenario = build_relocation_scenario(n_users=12, n_days=120, seed=2)
        engine = StreamingGeolocator(
            drift=DriftConfig() if drift is None else drift
        )
        _stream(engine, scenario)
        return engine

    def test_v2_json_round_trip_preserves_drift_state(self, tmp_path):
        engine = self._small_engine()
        path = tmp_path / "campaign.json"
        engine.save_checkpoint(path)
        restored = StreamingGeolocator.load_checkpoint(path)
        assert restored.drift == engine.drift
        assert restored.snapshot().placement == engine.snapshot().placement
        assert restored.timeline is not None
        assert len(restored.timeline) == len(engine.timeline)

    def test_v2_binary_round_trip_preserves_drift_state(self, tmp_path):
        engine = self._small_engine()
        path = tmp_path / "campaign.npz"
        engine.save_checkpoint(path)
        restored = StreamingGeolocator.load_checkpoint(path)
        assert restored.drift == engine.drift
        assert restored.snapshot().placement == engine.snapshot().placement
        assert len(restored.timeline) == len(engine.timeline)

    def test_v1_json_loads_with_full_confidence_defaults(self, tmp_path):
        from repro.reliability import write_checkpoint

        engine = StreamingGeolocator()
        crowd = build_region_crowd("germany", 5, seed=1, n_days=90)
        for trace in crowd:
            for timestamp in trace.timestamps:
                engine.observe(trace.user_id, float(timestamp))
        state = engine.state_dict()
        # Reduce to the version-1 schema: pre-drift fields only.
        for user_state in state["users"].values():
            for key in ("record_version", "anchor_day", "confidence", "confidence_day"):
                del user_state[key]
        for key in ("stream_day", "drift", "timeline"):
            del state[key]
        path = tmp_path / "old.json"
        write_checkpoint(path, STREAM_CHECKPOINT_KIND, 1, state)

        plain = StreamingGeolocator.load_checkpoint(path)
        assert plain.drift is None
        assert plain.snapshot().placement == engine.snapshot().placement

        enabled = StreamingGeolocator.load_checkpoint(path, drift=DriftConfig())
        _, columns = enabled.binary_state()
        assert (columns["confidence"] == 1.0).all()
        assert (columns["record_version"] == 1).all()
        # Every restored user carries a confidence record, not only the
        # threshold-passing ones the summary counts (here: all of them).
        assert _NO_DAY not in enabled._table.conf_day
        active = int((columns["n_posts"] >= enabled.min_posts).sum())
        assert active == enabled.n_users()
        assert enabled.snapshot().confidence.n_tracked == active

    def test_nan_confidence_in_a_checkpoint_reads_as_stale(self):
        engine = self._small_engine()
        meta, columns = engine.binary_state()
        tracked = np.flatnonzero(columns["n_posts"] >= engine.min_posts)
        columns["confidence"][tracked[0]] = np.nan
        restored = StreamingGeolocator.from_binary_state(meta, columns)
        config = restored.drift
        now_day = int(restored.heartbeat()["stream_day"])
        expected = [
            UserConfidence(
                float(columns["confidence"][row]), int(columns["confidence_day"][row])
            ).effective(now_day, config.decay_per_day)
            for row in tracked
        ]
        assert expected[0] == 0.0
        summary = restored.snapshot().confidence
        assert summary.n_tracked == tracked.size
        assert summary.minimum == 0.0
        assert summary.mean == float(np.mean(expected))
        assert summary.n_stale == sum(
            value < config.confidence_threshold for value in expected
        )

    def test_v2_file_fails_loudly_on_v1_reader(self, tmp_path):
        engine = self._small_engine()
        path = tmp_path / "campaign.json"
        engine.save_checkpoint(path)
        with pytest.raises(CheckpointError, match="version"):
            read_checkpoint(path, STREAM_CHECKPOINT_KIND, 1)

    def test_unknown_future_version_is_rejected(self, tmp_path):
        from repro.reliability import write_checkpoint

        path = tmp_path / "future.json"
        write_checkpoint(path, STREAM_CHECKPOINT_KIND, 99, {"users": {}})
        with pytest.raises(CheckpointError, match="version"):
            StreamingGeolocator.load_checkpoint(path)

    def test_drift_survives_checkpoint_mid_stream(self, tmp_path):
        """Pause/resume mid-campaign: detection still fires after resume."""
        scenario = build_relocation_scenario(n_users=40, n_days=240, seed=31)
        engine = StreamingGeolocator(drift=DriftConfig())
        events = scenario.sorted_events()
        half = len(events) // 2
        for timestamp, user_id in events[:half]:
            engine.observe(user_id, timestamp)
        engine.snapshot()
        path = tmp_path / "mid.npz"
        engine.save_checkpoint(path)

        resumed = StreamingGeolocator.load_checkpoint(path)
        for timestamp, user_id in events[half:]:
            resumed.observe(user_id, timestamp)
        snapshot = resumed.snapshot()
        movers_fired = {
            e.user_id for e in resumed.migrations if e.user_id in scenario.moved_ids
        }
        assert movers_fired, "no migrations detected after resume"
        assert snapshot.placement == resumed.snapshot_reference().placement


class TestCompositionTimeline:
    def test_records_and_replaces_by_day(self):
        timeline = CompositionTimeline()
        hist = np.zeros(len(ZONE_OFFSETS), dtype=np.int64)
        hist[3] = 5
        timeline.record(10, hist)
        hist[3] = 7
        timeline.record(10, hist)
        timeline.record(11, hist)
        assert len(timeline) == 2
        assert timeline.samples()[0].n_active == 7

    def test_shift_visible_in_timeline(self):
        scenario = build_server_offset_scenario(
            n_users=40, shift_hours=6, n_days=240, seed=13
        )
        engine = StreamingGeolocator(drift=DriftConfig())
        _stream(engine, scenario)
        samples = engine.timeline.samples()
        early = next(s for s in samples if s.n_active >= 10)
        late = samples[-1]

        def mean_zone(sample):
            fractions = np.asarray(sample.fractions)
            return float(fractions @ np.asarray(ZONE_OFFSETS))

        # The fraction-weighted crowd centre slides by the server shift
        # (the mode alone is too jumpy on a 40-user crowd).
        assert abs(
            (mean_zone(late) - mean_zone(early)) - scenario.shift_hours
        ) <= 2.0


def _frozen_records() -> dict[str, list[str]]:
    """The fixture's lines, by the scenario they were recorded from."""
    records: dict[str, list[str]] = {}
    lines: list[str] = []
    for line in FIXTURE_PATH.read_text(encoding="utf-8").splitlines():
        if line.startswith('{"scenario": '):
            lines = records.setdefault(json.loads(line)["scenario"], [])
        else:
            lines.append(line)
    return records


class TestFrozenLifecycle:
    """Migrations, daily snapshots and the final state replay exactly.

    ``tests/fixtures/streaming/drift_lifecycle.jsonl`` was recorded by the
    engine that scored every candidate change day in its own call (see
    ``tests/drift_fixtures.py``); floats compare by their ``repr``.
    """

    @pytest.mark.parametrize("batched", [False, True], ids=["per-event", "batched"])
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_replay_matches_the_frozen_record(self, name, batched):
        frozen = _frozen_records()
        assert frozen.keys() == SCENARIOS.keys()
        assert any(line.startswith('{"migration": ') for line in frozen["relocation"])
        lines = render(replay(SCENARIOS[name](), batched=batched)).splitlines()
        assert lines == frozen[name]
