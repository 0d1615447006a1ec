"""Observability wired through the pipeline: counters, spans, CLI artifacts.

The unit layer (``test_obs.py``) proves the registry/tracer/manifest
primitives; this module proves the *instrumentation* -- that a real
geolocation run feeds the expected metric set, that enabling it never
changes a single number, and that the CLI's ``--metrics-out`` /
``--trace-out`` / ``--manifest-out`` flags produce valid artifacts the
``stats`` subcommand can read back.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.batch import ProfileMatrix
from repro.core.events import ActivityTrace, TraceSet
from repro.core.geolocate import CrowdGeolocator
from repro.datasets.store import TraceStore
from repro.errors import RetryExhaustedError, TransientForumError
from repro.obs import metrics as obs_metrics
from repro.obs.manifest import RunManifest
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.tracing import Tracer, use_tracer
from repro.reliability.clocks import ManualClock
from repro.reliability.policy import CircuitBreaker, CircuitState, RetryPolicy
from repro.reliability.quality import partition_trace_set


def _diurnal_crowd(n_users: int = 30, seed: int = 7) -> TraceSet:
    """A small crowd with clear evening peaks, cheap enough per-test."""
    rng = np.random.default_rng(seed)
    traces = []
    for index in range(n_users):
        zone_shift = index % 4  # a handful of distinct zones
        days = rng.integers(0, 40, size=60)
        hours = rng.integers(18, 23, size=60) - zone_shift
        stamps = days * 86400.0 + hours * 3600.0 + rng.uniform(0, 3600, size=60)
        traces.append(ActivityTrace(f"u{index:03d}", np.abs(stamps)))
    return TraceSet(traces)


def _counter_names(registry: MetricsRegistry) -> set[str]:
    return {entry["name"] for entry in registry.snapshot()["counters"]}


def _counter_value(registry: MetricsRegistry, name: str, **labels) -> float:
    return registry.counter(name, **labels).value


class TestGeolocateInstrumentation:
    def test_batch_run_feeds_expected_counter_set(self):
        crowd = _diurnal_crowd()
        registry = MetricsRegistry()
        tracer = Tracer()
        with use_registry(registry), use_tracer(tracer):
            report = CrowdGeolocator().geolocate(crowd)
        names = _counter_names(registry)
        assert {
            "repro_batch_builds_total",
            "repro_core_em_runs_total",
            "repro_core_geolocate_runs_total",
            "repro_core_users_placed_total",
        } <= names
        assert (
            _counter_value(
                registry, "repro_core_geolocate_runs_total", pipeline="batch"
            )
            == 1.0
        )
        assert _counter_value(
            registry, "repro_core_users_placed_total"
        ) == float(len(report.user_zones))
        # The run's wall time landed in the latency histogram.
        (histogram,) = [
            entry
            for entry in registry.snapshot()["histograms"]
            if entry["name"] == "repro_core_geolocate_seconds"
        ]
        assert histogram["count"] == 1

    def test_batch_run_records_pipeline_spans(self):
        tracer = Tracer()
        with use_tracer(tracer):
            CrowdGeolocator().geolocate(_diurnal_crowd())
        names = {span.name for span in tracer.all_spans()}
        assert {"profile_build", "polish", "placement", "mixture"} <= names

    def test_observability_is_numerically_inert(self):
        crowd = _diurnal_crowd()
        locator = CrowdGeolocator()
        plain = locator.geolocate(crowd)
        with use_registry(MetricsRegistry()), use_tracer(Tracer()):
            instrumented = locator.geolocate(crowd)
        assert plain.user_zones == instrumented.user_zones
        assert list(plain.placement.fractions) == list(
            instrumented.placement.fractions
        )
        assert plain.zone_offsets() == instrumented.zone_offsets()


class TestStoreInstrumentation:
    def test_store_pipeline_counters_and_spans(self, tmp_path):
        crowd = _diurnal_crowd()
        store_path = tmp_path / "crowd.store"
        TraceStore.write(crowd, store_path)
        registry = MetricsRegistry()
        tracer = Tracer()
        with use_registry(registry), use_tracer(tracer):
            store = TraceStore.open(store_path)
            report = CrowdGeolocator().geolocate_store(store)
        names = _counter_names(registry)
        assert "repro_datasets_store_opens_total" in names
        assert "repro_datasets_store_shards_total" in names
        assert (
            _counter_value(
                registry, "repro_core_geolocate_runs_total", pipeline="store"
            )
            == 1.0
        )
        assert report.user_zones
        spans = {span.name for span in tracer.all_spans()}
        assert {"profile_build", "polish", "placement"} <= spans
        build = next(
            span for span in tracer.all_spans() if span.name == "profile_build"
        )
        assert build.attrs.get("source") == "store"

    def test_store_and_jsonl_paths_agree_under_instrumentation(self, tmp_path):
        crowd = _diurnal_crowd()
        store_path = tmp_path / "crowd.store"
        TraceStore.write(crowd, store_path)
        with use_registry(MetricsRegistry()), use_tracer(Tracer()):
            via_store = CrowdGeolocator().geolocate_store(
                TraceStore.open(store_path)
            )
        via_memory = CrowdGeolocator().geolocate(crowd)
        assert via_store.user_zones == via_memory.user_zones

    def test_profile_matrix_build_counter(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            ProfileMatrix.from_trace_set(_diurnal_crowd())
        assert "repro_batch_builds_total" in _counter_names(registry)


class TestReliabilityInstrumentation:
    def test_retry_counters(self):
        registry = MetricsRegistry()
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
        clock = ManualClock()

        def always_down():
            raise TransientForumError("503")

        with use_registry(registry):
            with pytest.raises(RetryExhaustedError):
                policy.execute(always_down, clock=clock)
        assert (
            _counter_value(registry, "repro_reliability_retry_attempts_total")
            == 3.0
        )
        assert (
            _counter_value(registry, "repro_reliability_retry_exhausted_total")
            == 1.0
        )

    def test_circuit_transitions_counted_once_per_flip(self):
        registry = MetricsRegistry()
        clock = ManualClock()
        breaker = CircuitBreaker(
            failure_threshold=2, recovery_timeout=10.0, clock=clock
        )
        with use_registry(registry):
            breaker.record_failure()  # below threshold: still closed
            breaker.record_failure()  # trips
            assert breaker.state is CircuitState.OPEN
            clock.advance(10.0)
            assert breaker.state is CircuitState.HALF_OPEN
            breaker.record_success()
            assert breaker.state is CircuitState.CLOSED

        def transitions(to: str) -> float:
            return _counter_value(
                registry, "repro_reliability_circuit_transitions_total", to=to
            )

        assert transitions("open") == 1.0
        assert transitions("half_open") == 1.0
        assert transitions("closed") == 1.0

    def test_quarantine_counters_by_reason(self):
        registry = MetricsRegistry()
        traces = TraceSet(
            [
                ActivityTrace("ok", [3600.0 * h for h in range(1, 40)]),
                ActivityTrace("hollow", []),
                ActivityTrace("mangled", [float("nan")]),
            ]
        )
        with use_registry(registry):
            healthy, report = partition_trace_set(traces)
        assert len(healthy) == 1 and report.n_quarantined == 2
        assert (
            _counter_value(
                registry,
                "repro_reliability_quarantined_users_total",
                reason="empty-trace",
            )
            == 1.0
        )
        assert (
            _counter_value(
                registry,
                "repro_reliability_quarantined_users_total",
                reason="non-finite-timestamps",
            )
            == 1.0
        )
        assert (
            _counter_value(registry, "repro_reliability_retained_users_total")
            == 1.0
        )


def _write_jsonl_crowd(path, n_users: int = 10) -> None:
    lines = []
    for index in range(n_users):
        hour = 19 + index % 3
        stamps = [day * 86400.0 + hour * 3600.0 for day in range(40)]
        lines.append(json.dumps({"user": f"u{index:02d}", "timestamps": stamps}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestCliArtifacts:
    def test_geolocate_writes_all_three_artifacts(self, tmp_path, capsys):
        traces = tmp_path / "crowd.jsonl"
        _write_jsonl_crowd(traces)
        metrics_out = tmp_path / "metrics.json"
        trace_out = tmp_path / "trace.json"
        manifest_out = tmp_path / "run.manifest.json"
        assert (
            cli_main(
                [
                    "--scale",
                    "0.02",
                    "geolocate",
                    str(traces),
                    "--metrics-out",
                    str(metrics_out),
                    "--trace-out",
                    str(trace_out),
                    "--manifest-out",
                    str(manifest_out),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "metrics written" in out

        metrics = json.loads(metrics_out.read_text())
        assert metrics["kind"] == "repro-metrics"
        counter_names = {
            entry["name"] for entry in metrics["metrics"]["counters"]
        }
        assert "repro_core_geolocate_runs_total" in counter_names

        trace = json.loads(trace_out.read_text())
        span_names = {event["name"] for event in trace["traceEvents"]}
        assert {"profile_build", "polish", "placement"} <= span_names

        manifest = RunManifest.load(manifest_out)
        assert manifest.command == "geolocate"
        assert manifest.dataset is not None
        assert manifest.dataset["path"] == str(traces)
        assert manifest.seed is not None or manifest.config  # config captured

    def test_obs_flags_accepted_after_subcommand(self, tmp_path):
        traces = tmp_path / "crowd.jsonl"
        _write_jsonl_crowd(traces)
        metrics_out = tmp_path / "m.json"
        assert (
            cli_main(
                [
                    "--scale",
                    "0.02",
                    "geolocate",
                    str(traces),
                    "--metrics-out",
                    str(metrics_out),
                ]
            )
            == 0
        )
        assert metrics_out.exists()
        # Manifest defaults to <metrics-out>.manifest.json.
        assert (tmp_path / "m.json.manifest.json").exists()

    def test_prom_suffix_selects_prometheus_format(self, tmp_path):
        traces = tmp_path / "crowd.jsonl"
        _write_jsonl_crowd(traces)
        prom_out = tmp_path / "metrics.prom"
        assert (
            cli_main(
                [
                    "--scale",
                    "0.02",
                    "geolocate",
                    str(traces),
                    "--metrics-out",
                    str(prom_out),
                ]
            )
            == 0
        )
        text = prom_out.read_text()
        assert "# TYPE repro_core_geolocate_runs_total counter" in text

    def test_globals_restored_after_cli_run(self, tmp_path):
        traces = tmp_path / "crowd.jsonl"
        _write_jsonl_crowd(traces)
        from repro.obs import tracing as obs_tracing

        before_registry = obs_metrics.get_registry()
        before_tracer = obs_tracing.get_tracer()
        cli_main(
            [
                "--scale",
                "0.02",
                "geolocate",
                str(traces),
                "--metrics-out",
                str(tmp_path / "m.json"),
            ]
        )
        assert obs_metrics.get_registry() is before_registry
        assert obs_tracing.get_tracer() is before_tracer


class TestStatsSubcommand:
    @pytest.fixture()
    def artifacts(self, tmp_path):
        traces = tmp_path / "crowd.jsonl"
        _write_jsonl_crowd(traces)
        metrics_out = tmp_path / "metrics.json"
        trace_out = tmp_path / "trace.json"
        manifest_out = tmp_path / "run.manifest.json"
        cli_main(
            [
                "--scale",
                "0.02",
                "geolocate",
                str(traces),
                "--metrics-out",
                str(metrics_out),
                "--trace-out",
                str(trace_out),
                "--manifest-out",
                str(manifest_out),
            ]
        )
        return metrics_out, trace_out, manifest_out

    def test_stats_reads_metrics(self, artifacts, capsys):
        metrics_out, _, _ = artifacts
        capsys.readouterr()
        assert cli_main(["stats", str(metrics_out)]) == 0
        out = capsys.readouterr().out
        assert "repro_core_geolocate_runs_total" in out

    def test_stats_reads_trace(self, artifacts, capsys):
        _, trace_out, _ = artifacts
        capsys.readouterr()
        assert cli_main(["stats", str(trace_out)]) == 0
        out = capsys.readouterr().out
        assert "profile_build" in out

    def test_stats_reads_manifest(self, artifacts, capsys):
        _, _, manifest_out = artifacts
        capsys.readouterr()
        assert cli_main(["stats", str(manifest_out)]) == 0
        out = capsys.readouterr().out
        assert "geolocate" in out
        assert "fingerprint" in out

    def test_stats_rejects_unknown_document(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"kind": "mystery"}))
        with pytest.raises(SystemExit):
            cli_main(["stats", str(path)])
