"""CI obs smoke: the instrumented CLI must emit valid observability artifacts.

Generates a small synthetic crowd, compiles it into a columnar store, runs
``darkcrowd geolocate --store`` through :func:`repro.cli.main` with
``--metrics-out`` / ``--trace-out``, and validates the JSON schemas of the
three artifacts the run writes:

* the metrics document (``kind: repro-metrics``) must carry the expected
  core counter set;
* the Chrome trace must contain complete events for the pipeline stages
  the ISSUE names: ``store_load``, ``profile_build``, ``polish`` and
  ``placement``;
* the run manifest (``kind: repro-run-manifest``) must round-trip through
  :meth:`RunManifest.load` with a consistent fingerprint and a dataset
  fingerprint matching the store directory on disk.

It then replays a synthetic relocation scenario through ``darkcrowd
replay --drift-window`` with the health observatory attached
(``--series-out`` / ``--health-out`` / ``--profile-out``) and validates
the three observatory artifacts:

* the series document (``kind: repro-series``) must carry the engine
  heartbeat series and their derived rates;
* the health log (``kind: repro-health``) must record the migration-rate
  SLO tripping on the relocation burst and recovering afterwards;
* the profile (``kind: repro-profile``) must be schema-valid, one
  ``darkcrowd stats`` call must print all three and exit 0, and
  ``darkcrowd dashboard`` must render all three into one self-contained
  HTML page (written to ``$OBS_SMOKE_DASHBOARD_OUT`` when set, so CI can
  upload it).

It also asserts the observability run is numerically inert: the report
computed with everything enabled equals one computed with the no-op
defaults.  Exits non-zero on any violation, so CI can gate on it::

    PYTHONPATH=src python benchmarks/obs_smoke.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _shared import synthetic_crowd
from repro.cli import main as cli_main
from repro.core.geolocate import CrowdGeolocator
from repro.datasets.store import TraceStore
from repro.datasets.traces import save_trace_set
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.obs.manifest import RunManifest, fingerprint_dataset

#: Crowd size: big enough to exercise polish/placement, small enough for CI.
N_USERS = 300

#: Counters every store-pipeline geolocation run must produce.
REQUIRED_COUNTERS = {
    "repro_batch_builds_total",
    "repro_core_em_runs_total",
    "repro_core_geolocate_runs_total",
    "repro_core_users_placed_total",
    "repro_datasets_store_opens_total",
    "repro_datasets_store_shards_total",
}

#: Span names the ISSUE's acceptance criterion requires in the trace.
REQUIRED_SPANS = {"store_load", "profile_build", "polish", "placement"}

_failures: list[str] = []


def check(condition: bool, message: str) -> None:
    status = "ok" if condition else "FAIL"
    print(f"  {message:60s} {status}")
    if not condition:
        _failures.append(message)


def validate_metrics(path: Path) -> None:
    payload = json.loads(path.read_text(encoding="utf-8"))
    check(payload.get("kind") == "repro-metrics", "metrics kind is repro-metrics")
    metrics = payload.get("metrics") or {}
    check(
        set(metrics) == {"counters", "gauges", "histograms"},
        "metrics document has counters/gauges/histograms sections",
    )
    names = {entry["name"] for entry in metrics.get("counters", [])}
    missing = REQUIRED_COUNTERS - names
    check(not missing, f"required counters present (missing: {sorted(missing)})")
    check(
        all(
            set(entry) == {"name", "labels", "value"}
            for entry in metrics.get("counters", []) + metrics.get("gauges", [])
        ),
        "counter/gauge entries have name+labels+value",
    )
    check(
        all(
            {"name", "labels", "buckets", "counts", "sum", "count"} <= set(entry)
            and len(entry["counts"]) == len(entry["buckets"]) + 1
            for entry in metrics.get("histograms", [])
        ),
        "histogram entries have buckets plus a +Inf count slot",
    )


def validate_trace(path: Path) -> None:
    payload = json.loads(path.read_text(encoding="utf-8"))
    events = payload.get("traceEvents")
    check(isinstance(events, list) and events, "trace has a traceEvents list")
    check(
        all(
            event.get("ph") == "X"
            and isinstance(event.get("ts"), (int, float))
            and isinstance(event.get("dur"), (int, float))
            for event in events or []
        ),
        "every event is a complete (ph=X) event with ts/dur",
    )
    names = {event["name"] for event in events or []}
    missing = REQUIRED_SPANS - names
    check(not missing, f"required spans present (missing: {sorted(missing)})")


def validate_manifest(path: Path, store_path: Path) -> None:
    manifest = RunManifest.load(path)  # raises on kind/fingerprint mismatch
    check(manifest.command == "geolocate", "manifest records the command")
    check(bool(manifest.versions.get("repro")), "manifest records versions")
    check(bool(manifest.spans), "manifest embeds a span summary")
    check(
        bool(
            manifest.metrics.get("counters") or manifest.metrics.get("histograms")
        ),
        "manifest embeds a metrics snapshot",
    )
    expected = fingerprint_dataset(store_path)
    check(
        manifest.dataset is not None
        and manifest.dataset["sha256"] == expected["sha256"],
        "manifest dataset fingerprint matches the store on disk",
    )


#: Series every observatory replay must sample (heartbeat + derived rate).
REQUIRED_SERIES = {
    "stream_events_total",
    "stream_events_total_rate",
    "stream_users_seen",
    "stream_migrations_total",
    "stream_migrations_total_rate",
    "stream_stale_ratio",
}


def validate_series(path: Path) -> None:
    from repro.obs.timeseries import load_series_jsonl

    frame = load_series_jsonl(path)  # raises on a bad header kind
    check(len(frame) >= 10, f"series has enough samples ({len(frame)})")
    check(frame.interval_s > 0, "series header records the interval")
    missing = REQUIRED_SERIES - set(frame.names())
    check(not missing, f"required series present (missing: {sorted(missing)})")
    times, values = frame.series("stream_events_total")
    check(
        list(times) == sorted(times) and list(values) == sorted(values),
        "event counter series is monotone in stream time",
    )


def validate_health(path: Path) -> None:
    from repro.obs.health import OK, load_health_jsonl

    header, events = load_health_jsonl(path)
    check(
        "migration_rate_spike" in header.get("rules", {}),
        "health header describes the migration-rate rule",
    )
    spike = [e for e in events if e.rule == "migration_rate_spike"]
    tripped = [e for e in spike if e.old_state == OK]
    recovered = [e for e in spike if e.new_state == OK]
    check(
        bool(tripped),
        "migration-rate SLO trips on the relocation burst",
    )
    check(
        bool(recovered),
        "migration-rate SLO recovers once the burst rolls out",
    )


def validate_profile(path: Path) -> None:
    from repro.obs.profiler import load_profile

    payload = load_profile(path)  # raises on a bad kind
    check(payload["n_samples"] >= 0, "profile records its sample count")
    check(
        all(
            {"frame", "self_samples", "total_samples", "self_fraction"}
            <= set(entry)
            for entry in payload.get("hotspots", [])
        ),
        "profile hotspot entries are schema-valid",
    )
    check(
        all(
            isinstance(stack, str) and isinstance(count, int)
            for stack, count in payload.get("collapsed", {}).items()
        ),
        "profile collapsed stacks map str -> int",
    )


def observatory_replay(work: Path) -> None:
    """Replay a relocation scenario with the observatory attached."""
    from repro.synth.drift import build_relocation_scenario

    scenario = build_relocation_scenario(n_users=100, seed=0, start_day=1)
    drift_jsonl = work / "drift.jsonl"
    save_trace_set(scenario.traces, drift_jsonl)

    series_out = work / "series.jsonl"
    health_out = work / "health.jsonl"
    profile_out = work / "run.profile.json"
    code = cli_main(
        [
            "--scale",
            "0.02",
            "replay",
            str(drift_jsonl),
            "--drift-window",
            "30",
            "--batch-size",
            "256",
            "--series-out",
            str(series_out),
            "--health-out",
            str(health_out),
            "--profile-out",
            str(profile_out),
        ]
    )
    check(code == 0, "observatory replay exits 0")
    for artifact in (series_out, health_out, profile_out):
        check(artifact.exists(), f"{artifact.name} written")
    if _failures:
        return
    validate_series(series_out)
    validate_health(health_out)
    validate_profile(profile_out)

    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli_main(["stats", str(series_out), str(health_out), str(profile_out)])
    check(code == 0, "darkcrowd stats over the three artifacts exits 0")
    check(
        all(
            title in printed.getvalue()
            for title in ("series artifact:", "health rules", "sampling profile:")
        ),
        "darkcrowd stats prints a digest of each artifact",
    )

    dashboard_out = Path(
        os.environ.get("OBS_SMOKE_DASHBOARD_OUT", work / "dashboard.html")
    )
    dashboard_out.parent.mkdir(parents=True, exist_ok=True)
    code = cli_main(
        [
            "dashboard",
            "--series",
            str(series_out),
            "--health",
            str(health_out),
            "--profile",
            str(profile_out),
            "--out",
            str(dashboard_out),
        ]
    )
    check(code == 0, "dashboard render exits 0")
    html = dashboard_out.read_text(encoding="utf-8")
    check(html.lstrip().startswith("<!DOCTYPE html>"), "dashboard is HTML")
    check(
        "src=" not in html and "href=" not in html,
        "dashboard is self-contained (no external fetches)",
    )


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        crowd = synthetic_crowd(N_USERS, seed=11)
        jsonl = work / "crowd.jsonl"
        save_trace_set(crowd, jsonl)
        store_path = work / "crowd.store"
        store = TraceStore.write(crowd, store_path)

        metrics_out = work / "metrics.json"
        trace_out = work / "trace.json"
        code = cli_main(
            [
                "geolocate",
                str(store_path),
                "--store",
                "--metrics-out",
                str(metrics_out),
                "--trace-out",
                str(trace_out),
            ]
        )
        check(code == 0, "instrumented CLI run exits 0")
        manifest_out = Path(str(metrics_out) + ".manifest.json")
        for artifact in (metrics_out, trace_out, manifest_out):
            check(artifact.exists(), f"{artifact.name} written")
        if _failures:
            print(f"obs_smoke: {len(_failures)} failure(s)", file=sys.stderr)
            return 1

        validate_metrics(metrics_out)
        validate_trace(trace_out)
        validate_manifest(manifest_out, store_path)

        observatory_replay(work)

        # Observability must be numerically inert: the instrumented run's
        # verdict equals a run under the no-op defaults, bit for bit.
        locator = CrowdGeolocator()
        plain = locator.geolocate_store(store)
        with obs_metrics.use_registry(obs_metrics.MetricsRegistry()):
            with obs_tracing.use_tracer(obs_tracing.Tracer()):
                instrumented = locator.geolocate_store(store)
        check(
            plain.user_zones == instrumented.user_zones
            and list(plain.placement.fractions)
            == list(instrumented.placement.fractions)
            and plain.zone_offsets() == instrumented.zone_offsets(),
            "obs-enabled run is bit-identical to obs-disabled run",
        )

    if _failures:
        print(f"obs_smoke: {len(_failures)} failure(s)", file=sys.stderr)
        return 1
    print("obs_smoke: all observability artifacts valid")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
