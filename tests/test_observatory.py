"""The health observatory: time-series, SLO rules, profiler, dashboard.

Everything here runs on explicit, injected time -- samplers tick on
numbers the test supplies and the profiler is fed synthetic frames, so
there is not a single ``sleep`` (and no timing flake) in the suite.
"""

from __future__ import annotations

import json
import sys

import numpy as np
import pytest

from repro.obs.health import (
    CRIT,
    OK,
    WARN,
    HealthEvent,
    HealthMonitor,
    HealthRule,
    Observatory,
    default_streaming_rules,
    health_timeline,
    load_health_jsonl,
    severity,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import (
    SamplingProfiler,
    collapse_frame,
    load_profile,
)
from repro.obs.timeseries import (
    SeriesBuffer,
    SeriesSampler,
    load_series_jsonl,
)


class _Source:
    """Minimal ``series()`` surface for driving a HealthMonitor directly."""

    def __init__(self):
        self.data: dict[str, list[tuple[float, float]]] = {}

    def push(self, name: str, t: float, value: float) -> None:
        self.data.setdefault(name, []).append((t, value))

    def series(self, name: str):
        pairs = self.data.get(name, [])
        ts = np.array([p[0] for p in pairs], dtype=np.float64)
        vs = np.array([p[1] for p in pairs], dtype=np.float64)
        return ts, vs


class TestSeriesBuffer:
    def test_ring_evicts_oldest_first(self):
        buf = SeriesBuffer("s", capacity=4)
        for i in range(6):
            buf.push(float(i), float(10 * i))
        assert len(buf) == 4
        times, values = buf.arrays()
        assert times.tolist() == [2.0, 3.0, 4.0, 5.0]
        assert values.tolist() == [20.0, 30.0, 40.0, 50.0]
        assert buf.last() == (5.0, 50.0)

    def test_window_filters_by_time(self):
        buf = SeriesBuffer("s", capacity=8)
        for i in range(5):
            buf.push(float(i), float(i))
        times, values = buf.window(since=3.0)
        assert times.tolist() == [3.0, 4.0]
        assert values.tolist() == [3.0, 4.0]

    def test_empty_buffer(self):
        buf = SeriesBuffer("s", capacity=2)
        assert len(buf) == 0
        assert buf.last() is None
        times, values = buf.arrays()
        assert times.size == 0 and values.size == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            SeriesBuffer("s", capacity=0)


class TestSeriesSampler:
    def test_tick_honours_interval_on_injected_time(self):
        sampler = SeriesSampler(interval_s=10.0)
        sampler.add_gauge("g", lambda: 1.0)
        assert sampler.tick(100.0)  # first tick always samples
        assert not sampler.tick(105.0)  # inside the interval
        assert not sampler.tick(109.9)
        assert sampler.tick(110.0)  # exactly one interval later
        assert sampler.n_samples == 2

    def test_counter_derives_rate_one_sample_late(self):
        sampler = SeriesSampler(interval_s=1.0)
        state = {"v": 0.0}
        sampler.add_counter("c", lambda: state["v"])
        sampler.sample(0.0)
        assert sampler.series("c_rate")[0].size == 0  # no predecessor yet
        state["v"] = 50.0
        sampler.sample(10.0)
        times, values = sampler.series("c_rate")
        assert times.tolist() == [10.0]
        assert values.tolist() == [5.0]  # 50 units over 10 seconds

    def test_raising_source_is_dropped_for_that_sample(self):
        sampler = SeriesSampler(interval_s=1.0)
        sampler.add_gauge("good", lambda: 7.0)
        sampler.add_gauge("bad", lambda: 1 / 0)
        row = sampler.sample(0.0)
        assert row == {"good": 7.0}

    def test_non_finite_values_are_skipped(self):
        sampler = SeriesSampler(interval_s=1.0)
        sampler.add_gauge("nan", lambda: float("nan"))
        sampler.add_gauge("inf", lambda: float("inf"))
        sampler.add_gauge("ok", lambda: 3.0)
        assert sampler.sample(0.0) == {"ok": 3.0}

    def test_bind_streaming_engine_prefixes_and_derives(self):
        class FakeEngine:
            def __init__(self):
                self.beats = 0

            def heartbeat(self):
                self.beats += 1
                return {"events_total": 100.0 * self.beats, "dirty_users": 5.0}

        engine = FakeEngine()
        sampler = SeriesSampler(interval_s=1.0)
        sampler.bind_streaming_engine(engine)
        sampler.sample(0.0)
        sampler.sample(10.0)
        assert engine.beats == 2  # one heartbeat() per sample, not per series
        assert sampler.last("stream_events_total") == (10.0, 200.0)
        assert sampler.last("stream_dirty_users") == (10.0, 5.0)
        times, values = sampler.series("stream_events_total_rate")
        assert values.tolist() == [10.0]

    def test_bind_registry_names_labelled_series(self):
        registry = MetricsRegistry()
        registry.gauge("repro_test_dirty_users").set(4)
        registry.counter("repro_test_polls_total", forum="idc").inc(8)
        sampler = SeriesSampler(interval_s=1.0)
        sampler.bind_registry(registry)
        sampler.sample(0.0)
        registry.counter("repro_test_polls_total", forum="idc").inc(4)
        sampler.sample(2.0)
        assert sampler.last("repro_test_dirty_users") == (2.0, 4.0)
        assert sampler.last("repro_test_polls_total{forum=idc}") == (2.0, 12.0)
        _, rates = sampler.series("repro_test_polls_total{forum=idc}_rate")
        assert rates.tolist() == [2.0]  # 4 increments over 2 seconds

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError, match="interval_s"):
            SeriesSampler(interval_s=0.0)


class TestSeriesPersistence:
    def _sampled(self, tmp_path, via_sink: bool):
        sampler = SeriesSampler(interval_s=5.0, capacity=16)
        state = {"v": 0.0}
        sampler.add_counter("c", lambda: state["v"])
        sampler.add_gauge("g", lambda: state["v"] / 2.0)
        path = tmp_path / "series.jsonl"
        if via_sink:
            sampler.attach_sink(path)
        for i in range(4):
            state["v"] = float(10 * i)
            sampler.sample(float(100 + 5 * i))
        if via_sink:
            sampler.close()
        else:
            sampler.write_jsonl(path)
        return sampler, path

    @pytest.mark.parametrize("via_sink", [True, False])
    def test_round_trip_matches_sampler(self, tmp_path, via_sink):
        sampler, path = self._sampled(tmp_path, via_sink)
        frame = load_series_jsonl(path)
        assert len(frame) == 4
        assert frame.interval_s == 5.0
        assert frame.names() == sampler.names()
        for name in sampler.names():
            live_t, live_v = sampler.series(name)
            loaded_t, loaded_v = frame.series(name)
            np.testing.assert_array_equal(live_t, loaded_t)
            np.testing.assert_array_equal(live_v, loaded_v)
        assert frame.last("c") == sampler.last("c")
        assert frame.series("missing")[0].size == 0
        assert frame.last("missing") is None

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "other"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="expected kind"):
            load_series_jsonl(path)

    def test_double_sink_rejected(self, tmp_path):
        sampler = SeriesSampler()
        sampler.attach_sink(tmp_path / "a.jsonl")
        with pytest.raises(RuntimeError, match="already attached"):
            sampler.attach_sink(tmp_path / "b.jsonl")
        sampler.close()
        sampler.close()  # idempotent


class TestHealthRule:
    def test_classify_ceiling(self):
        rule = HealthRule("r", "s", window_s=10.0, warn_above=1.0, crit_above=5.0)
        assert rule.classify(0.5) == OK
        assert rule.classify(1.5) == WARN
        assert rule.classify(6.0) == CRIT

    def test_classify_floor(self):
        rule = HealthRule("r", "s", window_s=10.0, warn_below=10.0, crit_below=2.0)
        assert rule.classify(50.0) == OK
        assert rule.classify(5.0) == WARN
        assert rule.classify(1.0) == CRIT

    def test_mixed_directions_rejected(self):
        with pytest.raises(ValueError, match="mixes"):
            HealthRule("r", "s", window_s=10.0, warn_above=1.0, warn_below=0.1)

    def test_no_thresholds_rejected(self):
        with pytest.raises(ValueError, match="no thresholds"):
            HealthRule("r", "s", window_s=10.0)

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(ValueError, match="aggregate"):
            HealthRule("r", "s", window_s=10.0, aggregate="p99", warn_above=1.0)

    def test_severity_ranks(self):
        assert severity(OK) < severity(WARN) < severity(CRIT)


class TestHealthHysteresis:
    def _monitor(self, **kwargs):
        rule = HealthRule(
            "spike", "s", window_s=100.0, aggregate="last", warn_above=1.0, **kwargs
        )
        return rule, HealthMonitor([rule])

    def test_trip_ticks_debounce_escalation(self):
        _, monitor = self._monitor(trip_ticks=2, clear_ticks=1)
        source = _Source()
        source.push("s", 0.0, 5.0)
        assert monitor.evaluate(source, 0.0) == []  # 1st breach: candidate only
        assert monitor.state("spike") == OK
        source.push("s", 1.0, 5.0)
        events = monitor.evaluate(source, 1.0)  # 2nd consecutive breach: trips
        assert [e.new_state for e in events] == [WARN]
        assert monitor.state("spike") == WARN

    def test_interrupted_streak_resets(self):
        _, monitor = self._monitor(trip_ticks=2, clear_ticks=1)
        source = _Source()
        for t, value in ((0.0, 5.0), (1.0, 0.5), (2.0, 5.0)):
            source.push("s", t, value)
            assert monitor.evaluate(source, t) == []
        assert monitor.state("spike") == OK  # breaches never consecutive

    def test_clear_ticks_debounce_recovery(self):
        _, monitor = self._monitor(trip_ticks=1, clear_ticks=2)
        source = _Source()
        source.push("s", 0.0, 5.0)
        monitor.evaluate(source, 0.0)
        assert monitor.state("spike") == WARN
        source.push("s", 1.0, 0.5)
        assert monitor.evaluate(source, 1.0) == []  # one calm eval: not enough
        assert monitor.state("spike") == WARN
        source.push("s", 2.0, 0.5)
        events = monitor.evaluate(source, 2.0)
        assert [e.new_state for e in events] == [OK]

    def test_missing_series_keeps_previous_state(self):
        _, monitor = self._monitor(trip_ticks=1, clear_ticks=1)
        source = _Source()
        source.push("s", 0.0, 5.0)
        monitor.evaluate(source, 0.0)
        assert monitor.state("spike") == WARN
        # later evaluations find no samples inside the window: state holds
        empty = _Source()
        assert monitor.evaluate(empty, 1000.0) == []
        assert monitor.state("spike") == WARN
        assert monitor.evaluate(source, 1e6) == []  # window excludes everything
        assert monitor.state("spike") == WARN

    def test_window_aggregation(self):
        rule = HealthRule(
            "mean_rule", "s", window_s=10.0, aggregate="mean", warn_above=2.0
        )
        monitor = HealthMonitor([rule])
        source = _Source()
        source.push("s", 0.0, 100.0)  # far outside the window at t=100
        source.push("s", 95.0, 1.0)
        source.push("s", 100.0, 2.0)
        monitor.evaluate(source, 100.0)
        assert monitor.state("mean_rule") == OK  # mean(1, 2) = 1.5, not 34.3

    def test_overall_is_worst_state(self):
        rules = [
            HealthRule("a", "s", window_s=10.0, aggregate="last", warn_above=1.0),
            HealthRule("b", "s", window_s=10.0, aggregate="last", crit_above=10.0),
        ]
        monitor = HealthMonitor(rules)
        source = _Source()
        source.push("s", 0.0, 50.0)
        monitor.evaluate(source, 0.0)
        assert monitor.states() == {"a": WARN, "b": CRIT}
        assert monitor.overall() == CRIT

    def test_duplicate_rule_names_rejected(self):
        rule = HealthRule("dup", "s", window_s=1.0, warn_above=1.0)
        with pytest.raises(ValueError, match="duplicate"):
            HealthMonitor([rule, rule])


class TestHealthPersistence:
    def test_sink_round_trip(self, tmp_path):
        rule = HealthRule(
            "spike", "s", window_s=100.0, aggregate="last", warn_above=1.0
        )
        monitor = HealthMonitor([rule])
        seen: list[HealthEvent] = []
        monitor.on_event(seen.append)
        path = tmp_path / "health.jsonl"
        monitor.attach_sink(path)
        source = _Source()
        for t, value in ((0.0, 5.0), (1.0, 0.1), (2.0, 0.1)):
            source.push("s", t, value)
            monitor.evaluate(source, t)
        monitor.close()
        header, events = load_health_jsonl(path)
        assert header["rules"] == {"spike": rule.describe()}
        assert [(e.rule, e.old_state, e.new_state) for e in events] == [
            ("spike", OK, WARN),
            ("spike", WARN, OK),
        ]
        assert events == monitor.events == seen

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "repro-series"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="expected kind"):
            load_health_jsonl(path)

    @pytest.mark.parametrize("field", ["old_state", "new_state"])
    def test_unknown_state_rejected_with_its_line(self, tmp_path, field):
        event = HealthEvent(5.0, "a", OK, WARN, 2.0, "").to_dict()
        event[field] = "bogus"
        path = tmp_path / "health.jsonl"
        path.write_text(
            '{"kind": "repro-health"}\n\n' + json.dumps(event) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="line 3: unknown health state 'bogus'"):
            load_health_jsonl(path)

    def test_health_timeline_reconstruction(self):
        events = [
            HealthEvent(5.0, "a", OK, WARN, 2.0, ""),
            HealthEvent(9.0, "a", WARN, OK, 0.5, ""),
        ]
        timeline = health_timeline(events, ["a", "b"])
        assert timeline["a"] == [(float("-inf"), OK), (5.0, WARN), (9.0, OK)]
        assert timeline["b"] == [(float("-inf"), OK)]


class TestDefaultStreamingRules:
    def test_migration_spike_fires_on_burst(self):
        rules = default_streaming_rules(interval_s=3600.0)
        monitor = HealthMonitor(rules)
        sampler = SeriesSampler(interval_s=3600.0)
        state = {"migrations": 0.0}
        sampler.add_counter("stream_migrations_total", lambda: state["migrations"])
        day = 86400.0
        # quiet day, then a 10-migration burst in one hour, then quiet again
        now = 0.0
        for _ in range(24):
            now += 3600.0
            sampler.sample(now)
            monitor.evaluate(sampler, now)
        assert monitor.state("migration_rate_spike") == OK
        state["migrations"] = 10.0
        now += 3600.0
        sampler.sample(now)
        monitor.evaluate(sampler, now)
        assert monitor.state("migration_rate_spike") in (WARN, CRIT)
        for _ in range(3 * 24):  # burst rolls out of the one-day window
            now += 3600.0
            sampler.sample(now)
            monitor.evaluate(sampler, now)
        assert monitor.state("migration_rate_spike") == OK
        assert now < 5 * day

    def test_optional_rules_only_with_thresholds(self):
        names = {rule.name for rule in default_streaming_rules()}
        assert "ingest_throughput_floor" not in names
        assert "snapshot_staleness_ceiling" not in names
        full = {
            rule.name
            for rule in default_streaming_rules(
                throughput_floor_per_day=1000.0,
                snapshot_lag_warn_events=1e6,
                checkpoint_lag_warn_events=1e6,
            )
        }
        assert {
            "migration_rate_spike",
            "stale_ratio_ceiling",
            "circuit_open",
            "ingest_throughput_floor",
            "snapshot_staleness_ceiling",
            "checkpoint_lag_ceiling",
        } <= full

    def test_rules_for_absent_subsystems_stay_ok(self):
        monitor = HealthMonitor(default_streaming_rules())
        sampler = SeriesSampler(interval_s=1.0)
        sampler.add_gauge("unrelated", lambda: 1.0)
        sampler.sample(0.0)
        assert monitor.evaluate(sampler, 0.0) == []
        assert monitor.overall() == OK


class TestObservatory:
    def test_tick_samples_then_evaluates(self):
        sampler = SeriesSampler(interval_s=10.0)
        state = {"v": 0.0}
        sampler.add_gauge("s", lambda: state["v"])
        rule = HealthRule(
            "spike", "s", window_s=100.0, aggregate="last", warn_above=1.0
        )
        observatory = Observatory(sampler=sampler, health=HealthMonitor([rule]))
        assert observatory.tick(0.0) == []
        state["v"] = 5.0
        assert observatory.tick(5.0) == []  # not due: no sample, no evaluation
        events = observatory.tick(10.0)
        assert [e.new_state for e in events] == [WARN]
        assert observatory.events == events

    def test_health_is_optional(self):
        sampler = SeriesSampler(interval_s=10.0)
        sampler.add_gauge("s", lambda: 1.0)
        observatory = Observatory(sampler=sampler)
        assert observatory.tick(0.0) == []
        assert sampler.n_samples == 1
        observatory.close()


def _grab_frame():
    """A frame whose stack ends ...test_observatory._grab_frame."""
    return sys._getframe()


class TestProfiler:
    def test_collapse_frame_is_root_first(self):
        stack = collapse_frame(_grab_frame())
        assert stack[-1] == "test_observatory._grab_frame"
        assert len(stack) > 1

    def test_max_depth_truncates(self):
        stack = collapse_frame(_grab_frame(), max_depth=2)
        assert len(stack) == 2

    def test_sample_once_tallies_synthetic_frames(self):
        profiler = SamplingProfiler(interval_s=1.0)
        for _ in range(3):
            assert profiler.sample_once(_grab_frame())
        assert profiler.n_samples == 3
        collapsed = profiler.collapsed()
        (stack_key,) = collapsed
        assert stack_key.endswith("test_observatory._grab_frame")
        assert collapsed[stack_key] == 3

    def test_sample_once_without_target_returns_false(self):
        assert not SamplingProfiler().sample_once()

    def test_hotspots_rank_by_self_samples(self):
        profiler = SamplingProfiler()
        profiler._counts[("main", "outer", "hot")] = 8
        profiler._counts[("main", "outer")] = 2
        profiler._n_samples = 10
        ranked = profiler.hotspots(n=3)
        assert ranked[0]["frame"] == "hot"
        assert ranked[0]["self_samples"] == 8
        assert ranked[0]["total_samples"] == 8
        assert ranked[0]["self_fraction"] == pytest.approx(0.8)
        by_name = {entry["frame"]: entry for entry in ranked}
        assert by_name["outer"]["self_samples"] == 2
        assert by_name["outer"]["total_samples"] == 10
        assert by_name["main"]["self_samples"] == 0

    def test_write_and_load_json(self, tmp_path):
        profiler = SamplingProfiler(interval_s=0.5)
        profiler.sample_once(_grab_frame())
        path = profiler.write(tmp_path / "run.profile.json")
        payload = load_profile(path)
        assert payload["kind"] == "repro-profile"
        assert payload["n_samples"] == 1
        assert payload["interval_s"] == 0.5
        assert payload["hotspots"][0]["frame"] == "test_observatory._grab_frame"

    def test_write_collapsed_text(self, tmp_path):
        profiler = SamplingProfiler()
        profiler.sample_once(_grab_frame())
        path = profiler.write(tmp_path / "run.collapsed")
        text = path.read_text(encoding="utf-8")
        assert text.endswith(" 1\n")
        assert ";" in text

    def test_load_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"kind": "repro-metrics"}), encoding="utf-8")
        with pytest.raises(ValueError, match="expected kind"):
            load_profile(path)

    def test_lifecycle_start_stop(self):
        profiler = SamplingProfiler(interval_s=60.0)  # never fires in-test
        profiler.start()
        with pytest.raises(RuntimeError, match="already started"):
            profiler.start()
        profiler.stop()
        profiler.stop()  # idempotent
        with profiler:
            pass  # restartable after stop

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError, match="interval_s"):
            SamplingProfiler(interval_s=0.0)


class TestDashboard:
    def _artifacts(self, tmp_path, series_name="stream_events_total"):
        from repro.obs.dashboard import render_dashboard

        sampler = SeriesSampler(interval_s=5.0)
        state = {"v": 0.0}
        sampler.add_counter(series_name, lambda: state["v"])
        rule = HealthRule(
            "spike",
            f"{series_name}_rate",
            window_s=100.0,
            aggregate="last",
            warn_above=1.0,
        )
        monitor = HealthMonitor([rule])
        series_path = tmp_path / "series.jsonl"
        health_path = tmp_path / "health.jsonl"
        monitor.attach_sink(health_path)
        for i in range(6):
            state["v"] = float(i * (20 if i == 3 else 1))
            sampler.sample(float(5 * i))
            monitor.evaluate(sampler, float(5 * i))
        sampler.write_jsonl(series_path)
        monitor.close()
        profiler = SamplingProfiler()
        profiler.sample_once(_grab_frame())
        profile_path = profiler.write(tmp_path / "p.json")
        return render_dashboard, series_path, health_path, profile_path

    def test_html_contains_all_sections(self, tmp_path):
        render_dashboard, series, health, profile = self._artifacts(tmp_path)
        html_text = render_dashboard(
            series_path=series, health_path=health, profile_path=profile
        )
        assert html_text.lstrip().startswith("<!DOCTYPE html>")
        assert "stream_events_total" in html_text
        assert "spike" in html_text
        assert "test_observatory._grab_frame" in html_text
        # self-contained: no external scripts, stylesheets or images
        assert "src=" not in html_text
        assert "href=" not in html_text

    def test_hostile_series_name_is_escaped(self, tmp_path):
        render_dashboard, series, health, profile = self._artifacts(
            tmp_path, series_name="x<script>alert(1)</script>"
        )
        html_text = render_dashboard(series_path=series)
        assert "<script>alert(1)</script>" not in html_text
        assert "&lt;script&gt;" in html_text

    def test_requires_at_least_one_artifact(self):
        from repro.obs.dashboard import render_dashboard

        with pytest.raises(ValueError, match="at least one"):
            render_dashboard()
