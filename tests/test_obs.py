"""The observability layer: metrics, spans, structured logs, manifests."""

from __future__ import annotations

import io
import json
import logging
import math
import threading

import pytest

from repro.errors import ReproError
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.obs.logs import (
    JsonlFormatter,
    configure_logging,
    get_logger,
    log_event,
    reset_logging,
)
from repro.obs.manifest import (
    MANIFEST_KIND,
    RunManifest,
    collect_versions,
    fingerprint_dataset,
)
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Stopwatch,
    percentile_from_counts,
    use_registry,
)
from repro.obs.progress import ProgressReporter
from repro.obs.tracing import Tracer, trace_span, traced, use_tracer


class TestCounters:
    def test_starts_at_zero_and_accumulates(self):
        registry = MetricsRegistry()
        c = registry.counter("repro_test_events_total")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_same_name_same_handle(self):
        registry = MetricsRegistry()
        assert registry.counter("repro_test_a_total") is registry.counter(
            "repro_test_a_total"
        )

    def test_labels_create_distinct_series(self):
        registry = MetricsRegistry()
        shm = registry.counter("repro_test_builds_total", path="shm")
        serial = registry.counter("repro_test_builds_total", path="serial")
        assert shm is not serial
        shm.inc(3)
        assert shm.value == 3 and serial.value == 0

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_test_x_total", a="1", b="2")
        b = registry.counter("repro_test_x_total", b="2", a="1")
        assert a is b

    def test_counter_cannot_decrease(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            MetricsRegistry().counter("repro_test_events_total").inc(-1)

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_thing")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_test_thing")

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            MetricsRegistry().counter("repro test total")

    def test_concurrent_increments_never_lost(self):
        registry = MetricsRegistry()
        c = registry.counter("repro_test_race_total")
        n_threads, per_thread = 8, 5_000

        def work():
            for _ in range(per_thread):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == n_threads * per_thread


class TestGauges:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("repro_test_dirty_users")
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value == 13.0


class TestHistograms:
    def test_bucket_edges_are_le_inclusive(self):
        h = Histogram("repro_test_seconds", buckets=(0.1, 1.0, 10.0))
        h.observe(0.1)  # exactly on an edge -> that bucket, not the next
        h.observe(0.10001)
        h.observe(10.0)
        h.observe(11.0)  # above the last bound -> +Inf slot
        assert h.bucket_counts() == [1, 1, 1, 1]
        assert h.count == 4
        assert h.sum == pytest.approx(21.20001)

    def test_buckets_must_strictly_increase(self):
        with pytest.raises(ValueError, match="strictly increase"):
            Histogram("repro_test_seconds", buckets=(1.0, 1.0))

    def test_infinite_bucket_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Histogram("repro_test_seconds", buckets=(1.0, float("inf")))

    def test_time_context_is_exception_safe(self):
        h = Histogram("repro_test_seconds", buckets=(60.0,))
        with pytest.raises(RuntimeError):
            with h.time():
                raise RuntimeError("boom")
        assert h.count == 1


class TestExposition:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("repro_test_runs_total", "completed runs").inc(2)
        registry.counter("repro_test_builds_total", path="shm").inc()
        registry.gauge("repro_test_dirty_users").set(7)
        h = registry.histogram("repro_test_seconds", buckets=(0.5, 2.0))
        h.observe(0.25)
        h.observe(1.0)
        h.observe(5.0)
        return registry

    def test_snapshot_sections(self):
        snap = self._populated().snapshot()
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert {"name": "repro_test_runs_total", "labels": {}, "value": 2.0} in snap[
            "counters"
        ]
        assert snap["histograms"][0]["counts"] == [1, 1, 1]

    def test_to_json_round_trips(self):
        payload = json.loads(self._populated().to_json())
        assert payload["kind"] == "repro-metrics"
        assert payload["metrics"]["gauges"][0]["value"] == 7.0

    def test_prometheus_text_format(self):
        text = self._populated().to_prometheus()
        lines = text.splitlines()
        assert "# HELP repro_test_runs_total completed runs" in lines
        assert "# TYPE repro_test_runs_total counter" in lines
        assert "repro_test_runs_total 2" in lines
        assert 'repro_test_builds_total{path="shm"} 1' in lines
        assert "# TYPE repro_test_seconds histogram" in lines
        # Bucket counts are cumulative and terminated by +Inf == _count.
        assert 'repro_test_seconds_bucket{le="0.5"} 1' in lines
        assert 'repro_test_seconds_bucket{le="2"} 2' in lines
        assert 'repro_test_seconds_bucket{le="+Inf"} 3' in lines
        assert "repro_test_seconds_sum 6.25" in lines
        assert "repro_test_seconds_count 3" in lines
        assert text.endswith("\n")

    def test_prometheus_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_events_total", reason='a"b').inc()
        assert r'reason="a\"b"' in registry.to_prometheus()


class TestRegistryGlobals:
    def test_null_registry_is_default_and_inert(self):
        registry = obs_metrics.get_registry()
        assert isinstance(registry, NullRegistry)
        assert not registry.enabled
        handle = obs_metrics.counter("repro_test_events_total")
        handle.inc()  # must not blow up, must not record
        assert registry.snapshot() == {
            "counters": [],
            "gauges": [],
            "histograms": [],
        }

    def test_use_registry_swaps_and_restores(self):
        live = MetricsRegistry()
        with use_registry(live):
            obs_metrics.counter("repro_test_events_total").inc()
            assert obs_metrics.get_registry() is live
        assert isinstance(obs_metrics.get_registry(), NullRegistry)
        assert live.counter("repro_test_events_total").value == 1.0

    def test_enable_disable(self):
        try:
            registry = obs_metrics.enable()
            assert isinstance(registry, MetricsRegistry)
            assert obs_metrics.enable() is registry  # idempotent
        finally:
            obs_metrics.disable()
        assert not obs_metrics.get_registry().enabled


class TestTracing:
    def test_spans_nest_on_one_thread(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with trace_span("outer", crowd="test"):
                with trace_span("inner"):
                    pass
                with trace_span("inner"):
                    pass
        assert [root.name for root in tracer.roots] == ["outer"]
        outer = tracer.roots[0]
        assert [child.name for child in outer.children] == ["inner", "inner"]
        assert outer.attrs == {"crowd": "test"}
        assert outer.wall_s >= sum(child.wall_s for child in outer.children) * 0.5

    def test_exception_marks_span_and_propagates(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with pytest.raises(KeyError):
                with trace_span("doomed"):
                    raise KeyError("gone")
        (span,) = tracer.all_spans()
        assert span.status == "error"
        assert "KeyError" in span.error
        # The stack unwound: a new span is a root, not a child of "doomed".
        with use_tracer(tracer):
            with trace_span("after"):
                pass
        assert [root.name for root in tracer.roots] == ["doomed", "after"]

    def test_span_yields_its_record_and_records_any_base_exception(self):
        tracer = Tracer()
        context = tracer.span("outer", n=1)
        assert tracer.roots == []  # the span opens on entry, not on the call
        with pytest.raises(KeyboardInterrupt):
            with context as outer:
                with tracer.span("inner") as inner:
                    assert tracer.current() is inner
                raise KeyboardInterrupt
        assert tracer.roots == [outer] and outer.children == [inner]
        assert (outer.status, outer.error) == ("error", "KeyboardInterrupt: ")
        assert (inner.status, inner.error) == ("ok", None)
        assert tracer.current() is None

    def test_disabled_tracer_records_nothing(self):
        assert not obs_tracing.get_tracer().enabled
        with trace_span("invisible"):
            pass
        assert obs_tracing.get_tracer().all_spans() == []

    def test_traced_decorator(self):
        tracer = Tracer()

        @traced("named")
        def work(x):
            return x + 1

        with use_tracer(tracer):
            assert work(1) == 2
        assert work(1) == 2  # disabled path still runs the function
        assert [span.name for span in tracer.all_spans()] == ["named"]

    def test_chrome_trace_export(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with trace_span("outer"):
                with trace_span("inner", n=3):
                    pass
        doc = tracer.to_chrome_trace()
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert [event["name"] for event in events] == ["outer", "inner"]
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
        assert events[1]["args"]["n"] == 3

    def test_summary_aggregates_by_name(self):
        tracer = Tracer()
        with use_tracer(tracer):
            for _ in range(3):
                with trace_span("hot"):
                    pass
            with pytest.raises(ValueError):
                with trace_span("cold"):
                    raise ValueError()
        summary = {entry["name"]: entry for entry in tracer.summary()}
        assert summary["hot"]["count"] == 3
        assert summary["hot"]["errors"] == 0
        assert summary["cold"]["errors"] == 1

    def test_reset_clears_roots(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with trace_span("gone"):
                pass
        tracer.reset()
        assert tracer.all_spans() == []


class TestLogging:
    def teardown_method(self):
        reset_logging()

    def test_jsonl_lines_carry_event_fields(self):
        sink = io.StringIO()
        configure_logging("INFO", json_lines=True, stream=sink)
        log_event(get_logger("core"), logging.INFO, "geolocate_done", n_users=42)
        line = json.loads(sink.getvalue().strip())
        assert line["logger"] == "repro.core"
        assert line["event"] == "geolocate_done"
        assert line["n_users"] == 42
        assert line["level"] == "INFO"
        assert "ts" in line

    def test_plain_format_appends_key_value_pairs(self):
        sink = io.StringIO()
        configure_logging("INFO", stream=sink)
        log_event(get_logger("core"), logging.INFO, "progress", done=10, pct=12.5)
        out = sink.getvalue()
        assert "progress" in out and "done=10" in out and "pct=12.5" in out

    def test_disabled_level_emits_nothing(self):
        sink = io.StringIO()
        configure_logging("WARNING", stream=sink)
        log_event(get_logger("core"), logging.INFO, "quiet")
        assert sink.getvalue() == ""

    def test_reconfigure_replaces_handler(self):
        sink = io.StringIO()
        configure_logging("INFO", stream=sink)
        configure_logging("INFO", stream=sink)  # must not stack handlers
        log_event(get_logger("core"), logging.INFO, "once")
        assert sink.getvalue().count("once") == 1

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown log level"):
            configure_logging("LOUD")

    def test_jsonl_formatter_stringifies_exotic_values(self):
        record = logging.LogRecord("repro.core", logging.INFO, "", 0, "ev", (), None)
        setattr(record, "repro_fields", {"path": object()})
        body = json.loads(JsonlFormatter().format(record))
        assert isinstance(body["path"], str)


class TestProgressReporter:
    def _reporter(self, sink, **kwargs):
        configure_logging("INFO", json_lines=True, stream=sink)
        clock = {"t": 0.0}
        reporter = ProgressReporter(
            "core",
            "profile_build",
            min_interval_s=5.0,
            clock=lambda: clock["t"],
            **kwargs,
        )
        return reporter, clock

    def teardown_method(self):
        reset_logging()

    def test_rate_limited_emission_with_eta(self):
        sink = io.StringIO()
        reporter, clock = self._reporter(sink, total=100)
        reporter.advance(10)  # interval not elapsed: silent
        assert sink.getvalue() == ""
        clock["t"] = 5.0
        reporter.advance(10)
        (line,) = [json.loads(l) for l in sink.getvalue().splitlines()]
        assert line["event"] == "progress"
        assert line["done"] == 20 and line["total"] == 100
        assert line["pct"] == 20.0
        assert line["eta_s"] == pytest.approx(20.0)  # 80 left at 4/s

    def test_finish_always_emits_final_line(self):
        sink = io.StringIO()
        reporter, clock = self._reporter(sink)
        reporter.advance(3)
        reporter.finish()
        lines = [json.loads(l) for l in sink.getvalue().splitlines()]
        assert lines[-1]["final"] is True
        assert lines[-1]["done"] == 3
        assert reporter.done == 3

    def test_feeds_progress_counter(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            reporter = ProgressReporter("forum", "monitor_campaign", clock=lambda: 0.0)
            reporter.advance(7)
        value = registry.counter(
            "repro_forum_progress_units_total", stage="monitor_campaign"
        ).value
        assert value == 7.0


class TestRunManifest:
    def test_round_trip_through_disk(self, tmp_path):
        manifest = RunManifest(
            command="geolocate", config={"scale": 0.02}, seed=11
        )
        path = manifest.write(tmp_path / "run.manifest.json")
        loaded = RunManifest.load(path)
        assert loaded.command == "geolocate"
        assert loaded.config == {"scale": 0.02}
        assert loaded.seed == 11
        assert loaded.fingerprint() == manifest.fingerprint()

    def test_fingerprint_ignores_metrics_and_time(self):
        a = RunManifest(command="run", seed=1, metrics={"counters": [1]}, created="x")
        b = RunManifest(command="run", seed=1, metrics={}, created="y")
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != RunManifest(command="run", seed=2).fingerprint()

    def test_tampering_is_detected(self, tmp_path):
        path = RunManifest(command="run").write(tmp_path / "m.json")
        payload = json.loads(path.read_text())
        payload["seed"] = 999  # edit after the fact
        path.write_text(json.dumps(payload))
        with pytest.raises(ReproError, match="fingerprint mismatch"):
            RunManifest.load(path)

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(ReproError, match="not a run manifest"):
            RunManifest.load(path)

    def test_corrupt_json_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(ReproError, match="corrupt manifest"):
            RunManifest.load(path)

    def test_collect_embeds_live_registry_and_tracer(self):
        registry = MetricsRegistry()
        tracer = Tracer()
        with use_registry(registry), use_tracer(tracer):
            obs_metrics.counter("repro_test_runs_total").inc()
            with trace_span("stage"):
                pass
            manifest = RunManifest.collect("test", seed=3)
        assert manifest.metrics["counters"][0]["name"] == "repro_test_runs_total"
        assert manifest.spans[0]["name"] == "stage"
        assert manifest.versions == collect_versions()
        assert manifest.to_dict()["kind"] == MANIFEST_KIND

    def test_dataset_fingerprint_file_and_dir(self, tmp_path):
        blob = tmp_path / "data.jsonl"
        blob.write_text("hello\n")
        fp = fingerprint_dataset(blob)
        assert fp["scheme"] == "sha256"
        assert fp["bytes"] == 6
        assert fingerprint_dataset(blob)["sha256"] == fp["sha256"]

        directory = tmp_path / "store"
        directory.mkdir()
        (directory / "a.bin").write_bytes(b"aa")
        (directory / "b.bin").write_bytes(b"bb")
        dir_fp = fingerprint_dataset(directory)
        assert dir_fp["scheme"] == "dir-sha256"
        assert dir_fp["bytes"] == 4
        (directory / "b.bin").write_bytes(b"bc")
        assert fingerprint_dataset(directory)["sha256"] != dir_fp["sha256"]

    def test_missing_dataset_raises_and_none_passes(self):
        assert fingerprint_dataset(None) is None
        with pytest.raises(ReproError, match="missing dataset"):
            fingerprint_dataset("/nonexistent/path/xyz")


class TestPercentileFromCounts:
    def test_interpolates_inside_landing_bucket(self):
        # 10 observations uniform in (0, 1], 10 in (1, 2]
        buckets, counts = [1.0, 2.0], [10, 10, 0]
        assert percentile_from_counts(buckets, counts, 0.5) == pytest.approx(1.0)
        assert percentile_from_counts(buckets, counts, 0.25) == pytest.approx(0.5)
        assert percentile_from_counts(buckets, counts, 0.75) == pytest.approx(1.5)
        assert percentile_from_counts(buckets, counts, 1.0) == pytest.approx(2.0)

    def test_inf_bucket_degrades_to_largest_finite_bound(self):
        assert percentile_from_counts([1.0, 2.0], [0, 0, 5], 0.99) == 2.0

    def test_empty_histogram_is_nan(self):
        assert math.isnan(percentile_from_counts([1.0], [0, 0], 0.5))

    def test_bad_quantile_rejected(self):
        with pytest.raises(ValueError, match="quantile"):
            percentile_from_counts([1.0], [1, 0], 0.0)
        with pytest.raises(ValueError, match="quantile"):
            percentile_from_counts([1.0], [1, 0], 1.5)

    def test_count_length_must_match_buckets(self):
        with pytest.raises(ValueError, match="expected 3 counts"):
            percentile_from_counts([1.0, 2.0], [1, 0], 0.5)

    def test_histogram_percentile_uses_live_counts(self):
        h = Histogram("repro_test_seconds", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 0.5, 1.5, 3.0):
            h.observe(value)
        assert h.percentile(0.5) == pytest.approx(1.0)
        assert h.percentile(1.0) == pytest.approx(4.0)
        assert math.isnan(Histogram("repro_test_empty", buckets=(1.0,)).percentile(0.5))

    def test_null_registry_percentile_is_nan(self):
        h = NullRegistry().histogram("repro_test_seconds", "help")
        h.observe(1.0)
        assert math.isnan(h.percentile(0.5))

    def test_matches_snapshot_shape(self):
        # the CLI computes percentiles from the persisted snapshot entries;
        # the module function must accept that exact shape
        registry = MetricsRegistry()
        h = registry.histogram("repro_test_seconds", "t", buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(1.5)
        (entry,) = registry.snapshot()["histograms"]
        value = percentile_from_counts(entry["buckets"], entry["counts"], 0.95)
        assert value == pytest.approx(h.percentile(0.95))


class TestStopwatch:
    def test_elapsed_is_monotone_nonnegative(self):
        watch = Stopwatch()
        first = watch.elapsed_s()
        second = watch.elapsed_s()
        assert 0.0 <= first <= second

    def test_restart_returns_elapsed_and_resets(self):
        watch = Stopwatch()
        elapsed = watch.restart()
        assert elapsed >= 0.0
        assert watch.elapsed_s() <= elapsed + 1.0  # origin moved forward
