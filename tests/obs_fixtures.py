"""The frozen observability artifacts, their renderings and the script that wrote them.

Usage::

    PYTHONPATH=src python tests/obs_fixtures.py OUTDIR

Writes one small artifact of every kind ``darkcrowd stats`` reads, each
through the writer a real run uses and from fixed inputs: a metrics
snapshot, a Chrome trace, a run manifest, a series JSONL, a health JSONL
and a sampling profile.  The health log comes from the stock streaming
rules evaluated over the series, so it holds WARN, CRIT and recovery
transitions plus a rule that never moved.  Then it writes the renderings:
``<stem>.stats.txt``, the stdout of ``darkcrowd stats <artifact>`` for
each artifact, and ``dashboard.html``, the page ``darkcrowd dashboard``
writes for the whole set.

The renderings committed under ``tests/fixtures/obs/`` were written by
the code in which ``stats``, ``dashboard --ansi`` and the HTML dashboard
each summarised the artifacts on their own, and ``tests/test_obs_views.py``
holds today's views to them byte for byte.  Do not regenerate them to
make that test pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path
from types import SimpleNamespace

from repro.cli import main
from repro.obs.health import HealthMonitor, default_streaming_rules
from repro.obs.manifest import RunManifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import SamplingProfiler
from repro.obs.timeseries import SeriesSampler
from repro.obs.tracing import Span, Tracer

#: Where the committed fixtures live.
FIXTURE_DIR = Path(__file__).parent / "fixtures" / "obs"

#: Artifact file name -> the ``darkcrowd dashboard`` flag that takes it
#: (``None``: the dashboard has no view of that kind).
ARTIFACTS: dict[str, str | None] = {
    "metrics.json": "--metrics",
    "trace.json": "--trace",
    "manifest.json": None,
    "series.jsonl": "--series",
    "health.jsonl": "--health",
    "profile.json": "--profile",
}

#: Six-hour samples over five stream days: (migrations, stale ratio).
#: A migration burst on day 1 that clears by day 4, and a stale-ratio
#: climb that never clears.
_CAMPAIGN = [
    (0, 0.00), (0, 0.02), (1, 0.03), (1, 0.05),
    (4, 0.08), (9, 0.10), (14, 0.12), (15, 0.15),
    (15, 0.22), (15, 0.26), (15, 0.31), (15, 0.28),
    (16, 0.45), (16, 0.50), (16, 0.35), (16, 0.30),
    (16, 0.29), (16, 0.27), (16, 0.26), (16, 0.25),
]


def _registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("repro_core_geolocate_runs_total", pipeline="batch").inc(3)
    registry.counter("repro_core_geolocate_runs_total", pipeline="store").inc()
    registry.counter("repro_batch_builds_total").inc(5)
    registry.gauge("repro_streaming_dirty_users").set(12)
    latency = registry.histogram("repro_core_geolocate_seconds", pipeline="batch")
    for seconds in (0.004, 0.02, 0.03, 0.3, 7.5):
        latency.observe(seconds)
    registry.histogram("repro_streaming_snapshot_seconds")  # never observed
    return registry


def _span(name, start, wall, cpu, *children, error=None, **attrs) -> Span:
    span = Span(name, attrs, start)
    span.wall_s, span.cpu_s = wall, cpu
    span.children.extend(children)
    if error is not None:
        span.status, span.error = "error", error
    return span


def _tracer() -> Tracer:
    """Two geolocation runs, the second one's mixture failing, then a replay.

    Fifteen span names, so the dashboard's twelve-row digest cuts some.
    """
    tracer = Tracer()
    tracer.roots.append(
        _span(
            "geolocate", 0.0, 0.5, 0.46,
            _span("store_load", 0.001, 0.0125, 0.004, path="crowd.store"),
            _span("profile_build", 0.014, 0.1, 0.1),
            _span("polish", 0.115, 0.05, 0.05),
            _span("placement", 0.166, 0.2, 0.19),
            _span("mixture", 0.367, 0.125, 0.11),
        )
    )
    tracer.roots.append(
        _span(
            "geolocate", 0.75, 0.3125, 0.3,
            _span("profile_build", 0.751, 0.0625, 0.06),
            _span("placement", 0.814, 0.15, 0.15),
            _span("mixture", 0.965, 0.09375, 0.09, error="ValueError: no users"),
            error="ValueError: no users",
        )
    )
    tracer.roots.append(
        _span(
            "replay", 1.1, 0.625, 0.6,
            _span("store_load", 1.101, 0.03125, 0.01),
            *(
                _span("ingest_chunk", 1.14 + 0.1 * i, 0.075 + 0.005 * i, 0.07)
                for i in range(3)
            ),
            _span("drift_check", 1.45, 0.0075, 0.007),
            _span("streaming_snapshot", 1.46, 0.04, 0.04),
            _span("series_tick", 1.51, 0.0005, 0.0005),
            _span("health_eval", 1.52, 0.00025, 0.00025),
            _span("heartbeat", 1.53, 0.000125, 0.000125),
            _span("streaming_snapshot", 1.54, 0.035, 0.035),
            _span("checkpoint_save", 1.6, 0.06, 0.02),
            _span("checkpoint_load", 1.67, 0.045, 0.015),
        )
    )
    return tracer


def _frame(*labels: str) -> SimpleNamespace:
    """A synthetic leaf frame whose root-first stack is *labels*."""
    frame = None
    for label in labels:
        module, name = label.split(".")
        frame = SimpleNamespace(
            f_code=SimpleNamespace(co_filename=f"{module}.py", co_name=name),
            f_back=frame,
        )
    return frame


def write_artifacts(out: Path) -> None:
    registry = _registry()
    (out / "metrics.json").write_text(registry.to_json() + "\n", encoding="utf-8")
    tracer = _tracer()
    (out / "trace.json").write_text(
        json.dumps(tracer.to_chrome_trace(), indent=2) + "\n", encoding="utf-8"
    )
    RunManifest(
        command="geolocate",
        config={"store": True, "traces": "crowd.store", "workers": 2},
        seed=2016,
        dataset={
            "path": "crowd.store",
            "scheme": "dir-sha256",
            "sha256": "5f1d" * 16,
            "bytes": 48213,
        },
        versions={"machine": "x86_64", "numpy": "1.26.4", "python": "3.12.3",
                  "repro": "0.1.0"},
        metrics=registry.snapshot(),
        spans=tracer.summary(),
        created="2026-01-15T09:30:00Z",
    ).write(out / "manifest.json")

    state = {"migrations": 0.0, "events": 0.0, "stale": 0.0}
    sampler = SeriesSampler(interval_s=6 * 3600.0)
    sampler.add_counter("stream_events_total", lambda: state["events"])
    sampler.add_counter("stream_migrations_total", lambda: state["migrations"])
    sampler.add_gauge("stream_stale_ratio", lambda: state["stale"])
    sampler.attach_sink(out / "series.jsonl")
    health = HealthMonitor(default_streaming_rules(interval_s=sampler.interval_s))
    health.attach_sink(out / "health.jsonl")
    for tick, (migrations, stale) in enumerate(_CAMPAIGN):
        now = tick * sampler.interval_s
        state.update(migrations=float(migrations), stale=stale,
                     events=float(150 * tick + 7 * tick * tick))
        sampler.tick(now)
        health.evaluate(sampler, now)
    sampler.close()
    health.close()

    profiler = SamplingProfiler()
    for stack, samples in (
        (("cli.main", "streaming.observe_batch", "kernels.segment_unique_cells"), 7),
        (("cli.main", "streaming.observe_batch", "streaming._ingest_grouped"), 4),
        (("cli.main", "streaming.snapshot", "em.select_mixture"), 3),
        (("cli.main", "timeseries.tick"), 1),
    ):
        for _ in range(samples):
            profiler.sample_once(_frame(*stack))
    profiler.write(out / "profile.json")


def stats_output(*paths: Path) -> str:
    """What ``darkcrowd stats PATH...`` prints."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        main(["stats", *(str(path) for path in paths)])
    return buffer.getvalue()


def dashboard_html(directory: Path, out: Path) -> str:
    """The page ``darkcrowd dashboard`` writes for every artifact in *directory*."""
    flags = [
        token
        for name, flag in ARTIFACTS.items()
        if flag is not None
        for token in (flag, str(directory / name))
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        main(["dashboard", *flags, "--out", str(out)])
    return out.read_text(encoding="utf-8")


def write_fixtures(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    write_artifacts(out)
    for name in ARTIFACTS:
        (out / f"{Path(name).stem}.stats.txt").write_text(
            stats_output(out / name), encoding="utf-8"
        )
    dashboard_html(out, out / "dashboard.html")


if __name__ == "__main__":
    write_fixtures(Path(sys.argv[1]))
