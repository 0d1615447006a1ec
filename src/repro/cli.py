"""Command-line interface: regenerate any table or figure of the paper.

Examples::

    darkcrowd table1
    darkcrowd fig 3              # German placement
    darkcrowd fig 11             # Dream Market case study
    darkcrowd table2 --forum-scale 0.3
    darkcrowd hemisphere
    darkcrowd ablations
    darkcrowd countermeasures    # Sec. VII studies
    darkcrowd sweeps             # crowd-size / activity sensitivity
    darkcrowd monitor --fault-rate 0.2 --checkpoint campaign.json
    darkcrowd monitor --resume campaign.json
    darkcrowd monitor --drift-window 30 --migrations-out migrations.jsonl
    darkcrowd geolocate traces.jsonl --quarantine
    darkcrowd convert traces.jsonl traces.store
    darkcrowd geolocate traces.store --store
    darkcrowd replay traces.store --store       # bulk streaming ingest
    darkcrowd replay traces.jsonl --drift-window 30
    darkcrowd all --fast
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from repro.analysis.ablations import (
    run_metric_ablation,
    run_sigma_init_ablation,
    run_threshold_ablation,
    run_trace_length_ablation,
)
from repro.analysis.countermeasures import (
    run_coordination_experiment,
    run_delay_experiment,
    run_monitor_experiment,
)
from repro.analysis.sweeps import run_activity_sweep, run_crowd_size_sweep
from repro.analysis.experiments import (
    make_context,
    run_fig1_user_profile,
    run_fig2_profiles,
    run_fig6_mixture,
    run_fig7_flat,
    run_forum_case_study,
    run_hemisphere_validation,
    run_single_country_placement,
    run_table1,
    run_table2,
)
from repro.analysis.report import ascii_bars, ascii_table
from repro.core.drift import DriftConfig
from repro.core.geolocate import CrowdGeolocator
from repro.core.streaming import StreamingGeolocator
from repro.datasets.store import TraceStore, convert_jsonl
from repro.datasets.traces import load_trace_set, load_trace_set_resilient
from repro.errors import EmptyTraceError
from repro.forum.monitor import ForumMonitor
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.obs.health import (
    HealthMonitor,
    Observatory,
    default_streaming_rules,
    load_health_jsonl,
)
from repro.obs.logs import configure_logging
from repro.obs.manifest import RunManifest
from repro.obs.profiler import SamplingProfiler
from repro.obs.timeseries import SeriesSampler, load_series_jsonl
from repro.obs.tracing import trace_span
from repro.reliability import FaultSpec, FlakyForumProxy, ManualClock, RetryPolicy
from repro.synth.forums import FORUM_SPECS
from repro.timebase.clock import SECONDS_PER_DAY

_FIG_FORUMS = {
    8: "crd_club",
    9: "crd_club",
    10: "idc",
    11: "dream_market",
    12: "majestic_garden",
    13: "pedo_community",
}
_FIG_REGIONS = {3: "germany", 4: "france", 5: "malaysia"}


def _print_profile(label: str, profile) -> None:
    print(ascii_bars(list(range(24)), list(profile.mass), title=label))


def _print_placement(label: str, placement) -> None:
    labels = [f"UTC{offset:+d}" for offset in placement.offsets]
    print(ascii_bars(labels, list(placement.fractions), title=label))


def _cmd_table1(context, args) -> None:
    rows = run_table1(context)
    print(
        ascii_table(
            ["Country/State", "paper users", "generated users"],
            rows,
            title="Table I -- active users by country/state",
        )
    )


def _cmd_fig(context, args) -> None:
    number = args.number
    if number == 1:
        result = run_fig1_user_profile(context)
        _print_profile(f"Fig. 1 -- {result.label}", result.profile)
    elif number == 2:
        result = run_fig2_profiles(context)
        _print_profile("Fig. 2(a) -- German crowd profile (local time)", result.regional)
        _print_profile("Fig. 2(b) -- generic profile", result.generic)
        print(f"Pearson regional vs generic: {result.pearson_regional_vs_generic:.3f}")
        print(f"Average pairwise Pearson:    {result.average_pairwise_pearson:.3f}")
    elif number in _FIG_REGIONS:
        result = run_single_country_placement(_FIG_REGIONS[number], context)
        _print_placement(
            f"Fig. {number} -- {result.region_key} placement "
            f"(true UTC{result.true_offset:+d})",
            result.placement,
        )
        print(
            f"Gaussian fit: mean {result.fit.mean:+.2f}, sigma {result.fit.sigma:.2f}; "
            f"fit avg {result.fit_metrics.average:.4f} "
            f"std {result.fit_metrics.standard_deviation:.4f}"
        )
    elif number == 6:
        for variant in ("relocated", "merged"):
            result = run_fig6_mixture(variant, context)
            _print_placement(f"Fig. 6 -- {result.label}", result.placement)
            print(
                f"expected zones {sorted(result.expected_offsets)}; "
                f"recovered {result.recovered_offsets()} "
                f"(max center error {result.max_center_error():.2f})"
            )
    elif number == 7:
        result = run_fig7_flat(context)
        _print_profile("Fig. 7 -- example flat (bot) profile", result.bot_profile)
        print(
            f"flat detected: {result.bot_is_flat}; polishing removed "
            f"{result.n_removed}/{result.n_before} users "
            f"({result.removed_are_bots:.0%} of removals were actual bots)"
        )
    elif number in _FIG_FORUMS:
        study = run_forum_case_study(
            _FIG_FORUMS[number],
            context,
            scale=args.forum_scale,
            via_tor=not args.no_tor,
            hemisphere_top_n=5 if number == 13 else 0,
        )
        if number == 8:
            _print_profile(
                "Fig. 8 -- CRD Club crowd profile (UTC)", study.report.crowd_profile
            )
            print(f"Pearson vs generic: {study.pearson_vs_generic:.3f}")
            return
        _print_placement(
            f"Fig. {number} -- {study.spec.name} placement", study.report.placement
        )
        print(study.report.summary())
        print(f"scrape: {study.scrape.summary()}")
        print(
            f"expected zones {list(study.expected_offsets)}; "
            f"recovered {study.recovered_offsets()}"
        )
        for hemisphere in study.report.hemisphere:
            print(
                f"  top user {hemisphere.user_id}: {hemisphere.verdict.value} "
                f"(margin {hemisphere.margin():.2f})"
            )
    else:
        raise SystemExit(f"unknown figure number: {number}")


def _cmd_table2(context, args) -> None:
    rows = run_table2(
        context, forum_scale=args.forum_scale, via_tor=not args.no_tor
    )
    print(
        ascii_table(
            ["Dataset", "Average", "Standard deviation"],
            [(row.dataset, row.average, row.standard_deviation) for row in rows],
            title="Table II -- Gaussian fitting metrics",
        )
    )


def _cmd_hemisphere(context, args) -> None:
    validations = run_hemisphere_validation(context)
    rows = []
    for validation in validations:
        rows.append(
            (
                validation.region_key,
                validation.expected.value,
                f"{validation.n_correct()}/{len(validation.results)}",
            )
        )
    print(
        ascii_table(
            ["Region", "expected", "correct verdicts"],
            rows,
            title="Sec. V-F -- hemisphere validation (5 most active users)",
        )
    )
    study = run_forum_case_study(
        "pedo_community",
        context,
        scale=args.forum_scale,
        via_tor=not args.no_tor,
        hemisphere_top_n=5,
    )
    print("\nPedo Support Community, 5 most active users:")
    for result in study.report.hemisphere:
        print(f"  {result.user_id}: {result.verdict.value}")


def _cmd_ablations(context, args) -> None:
    print(
        ascii_table(
            ["metric", "accuracy (±1 zone)", "users"],
            [(r.metric, r.accuracy, r.n_users) for r in run_metric_ablation(context)],
            title="Ablation -- placement distance metric",
        )
    )
    print()
    print(
        ascii_table(
            ["min posts", "accuracy", "users retained"],
            [
                (r.min_posts, r.accuracy, r.users_retained)
                for r in run_threshold_ablation(context)
            ],
            title="Ablation -- activity threshold (paper: 30)",
        )
    )
    print()
    print(
        ascii_table(
            ["sigma init", "components", "max center error"],
            [
                (r.sigma_init, r.recovered_components, r.max_center_error)
                for r in run_sigma_init_ablation(context)
            ],
            title="Ablation -- EM sigma initialisation (paper: 2.5)",
        )
    )
    print()
    print(
        ascii_table(
            ["days", "accuracy", "users retained"],
            [
                (r.n_days, r.accuracy, r.users_retained)
                for r in run_trace_length_ablation(context)
            ],
            title="Ablation -- trace length",
        )
    )


def _cmd_countermeasures(context, args) -> None:
    print(
        ascii_table(
            ["poll every (h)", "polls", "drift (zones)", "placement L1"],
            [
                (r.poll_interval_hours, r.n_polls, r.center_drift, r.placement_l1_distance)
                for r in run_monitor_experiment(context, scale=args.forum_scale)
            ],
            title="Sec. VII -- monitoring a timestamp-less forum",
        )
    )
    print()
    print(
        ascii_table(
            ["jitter (h)", "recovered centre", "centre error"],
            [
                (r.jitter_hours, r.dominant_mean, r.center_error)
                for r in run_delay_experiment(context, scale=args.forum_scale)
            ],
            title="Sec. VII -- random timestamp delays",
        )
    )
    print()
    print(
        ascii_table(
            ["decoy fraction", "zones", "honest weight", "decoy weight"],
            [
                (
                    r.decoy_fraction,
                    str(list(r.recovered_zones)),
                    r.honest_zone_weight,
                    r.decoy_zone_weight,
                )
                for r in run_coordination_experiment(context)
            ],
            title="Sec. VII -- coordinated decoy crowds",
        )
    )


def _cmd_sweeps(context, args) -> None:
    print(
        ascii_table(
            ["users", "placed", "centre error", "90% CI width", "k"],
            [
                (r.n_users_requested, r.n_users_placed, r.center_error, r.ci_width, r.k_recovered)
                for r in run_crowd_size_sweep(context)
            ],
            title="Sweep -- crowd size",
        )
    )
    print()
    print(
        ascii_table(
            ["posts/day", "median posts/user", "placed", "max centre error", "k"],
            [
                (
                    r.posts_per_day,
                    r.median_posts_per_user,
                    r.n_users_placed,
                    r.max_center_error,
                    r.k_recovered,
                )
                for r in run_activity_sweep(context)
            ],
            title="Sweep -- per-user activity",
        )
    )


def _cmd_monitor(context, args) -> None:
    """Resilient monitoring campaign with optional faults and checkpoints."""
    from repro.analysis.countermeasures import populated_forum

    _, forum = populated_forum(
        args.forum, seed=7, scale=args.forum_scale, n_days=context.n_days
    )
    if args.fault_rate > 0.0:
        forum = FlakyForumProxy(
            forum, FaultSpec(failure_rate=args.fault_rate, seed=args.seed)
        )
    policy = (
        RetryPolicy(max_attempts=6, base_delay=1.0, seed=args.seed)
        if args.fault_rate > 0.0
        else None
    )
    clock = ManualClock()  # backoff sleeps are simulated, not slept
    # With --drift-window the observatory instead rides the streaming
    # replay (where the engine heartbeat lives); without it the campaign
    # loop ticks a registry-only observatory on campaign time.
    observatory = None
    if args.drift_window is None:
        observatory = _build_observatory(None, args)
    if args.resume:
        monitor = ForumMonitor.from_checkpoint(
            forum,
            args.resume,
            retry_policy=policy,
            clock=clock,
            observatory=observatory,
        )
        checkpoint_path = args.checkpoint or args.resume
    else:
        monitor = ForumMonitor(
            forum, retry_policy=policy, clock=clock, observatory=observatory
        )
        checkpoint_path = args.checkpoint
    days = args.days if args.days is not None else context.n_days + 1
    result = monitor.run_campaign(
        start=0.0,
        end=days * SECONDS_PER_DAY,
        poll_interval=args.poll_hours * 3600.0,
        checkpoint_path=checkpoint_path,
        checkpoint_every=args.checkpoint_every,
    )
    print(result.summary())
    if checkpoint_path:
        print(f"checkpoint saved to {checkpoint_path}")
    _report_observatory(observatory, args)
    if args.drift_window is not None:
        _run_drift_monitor(context, args, result)
        return
    try:
        report = CrowdGeolocator(context.references).geolocate(
            result.traces, crowd_name=result.forum_name
        )
    except EmptyTraceError:
        print("too few active users to geolocate (campaign too short?)")
        return
    _print_placement(f"{result.forum_name} placement (monitored)", report.placement)
    print(report.summary())


def _stream_event_batches(engine, events, batch_size: int, on_chunk=None) -> None:
    """Feed sorted ``(timestamp, user_id)`` events through the bulk path.

    *on_chunk* (if given) is called after every bulk call with
    ``(events_so_far, chunk_max_timestamp)`` -- the observatory tick
    point, on stream time rather than wall time.
    """
    total = 0
    for low in range(0, len(events), batch_size):
        chunk = events[low : low + batch_size]
        engine.observe_batch(
            [user_id for _, user_id in chunk],
            [timestamp for timestamp, _ in chunk],
        )
        total += len(chunk)
        if on_chunk is not None and chunk:
            on_chunk(total, chunk[-1][0])


def _build_observatory(engine, args) -> Observatory | None:
    """The series/health observatory a streaming command asked for.

    ``None`` unless ``--series-out`` / ``--health-out`` was passed: the
    disabled path must construct nothing and stay bit-identical to the
    pre-observatory CLI.  *engine* is ``None`` for campaigns without a
    streaming engine, where only registry-derived series are sampled
    (the engine-heartbeat health rules then simply stay OK).
    """
    if not (args.series_out or args.health_out):
        return None
    sampler = SeriesSampler()
    if engine is not None:
        sampler.bind_streaming_engine(engine)
    sampler.bind_registry(obs_metrics.get_registry())
    if args.series_out:
        sampler.attach_sink(args.series_out)
    health = None
    if args.health_out:
        health = HealthMonitor(default_streaming_rules(interval_s=sampler.interval_s))
        health.attach_sink(args.health_out)
    return Observatory(sampler=sampler, health=health)


def _report_observatory(observatory, args) -> None:
    """Close the observatory sinks and say where the artifacts went."""
    if observatory is None:
        return
    observatory.close()
    if args.series_out:
        print(
            f"series written to {args.series_out} "
            f"({observatory.sampler.n_samples} samples, "
            f"{len(observatory.sampler.names())} series)"
        )
    if args.health_out:
        health = observatory.health
        print(
            f"health events written to {args.health_out} "
            f"({len(health.events)} transitions, overall {health.overall()})"
        )


def _print_stream_report(name: str, engine, snapshot) -> None:
    """The streaming verdict summary shared by ``monitor`` and ``replay``."""
    print(
        f"{name}: streamed {snapshot.n_events_seen} events, "
        f"{snapshot.n_users_active} active users"
    )
    summary = snapshot.confidence
    if summary is not None and summary.n_tracked:
        print(
            f"confidence: mean {summary.mean:.2f} min {summary.minimum:.2f} "
            f"({summary.n_stale}/{summary.n_tracked} below "
            f"{summary.threshold:.2f})"
        )
    if engine.drift is not None:
        by_reason: dict[str, int] = {}
        for event in engine.migrations:
            by_reason[event.reason] = by_reason.get(event.reason, 0) + 1
        reasons = (
            ", ".join(f"{k}: {v}" for k, v in sorted(by_reason.items())) or "none"
        )
        print(f"zone migrations: {len(engine.migrations)} ({reasons})")
    if engine.timeline is not None and len(engine.timeline):
        top = engine.timeline.samples()[-1].top_zones(3)
        zones = ", ".join(f"UTC{z:+d} {f:.0%}" for z, f in top)
        print(f"final composition: {zones}")


def _run_drift_monitor(context, args, result) -> None:
    """Replay the campaign through a drift-enabled streaming engine."""
    drift = DriftConfig(
        window_days=args.drift_window,
        confidence_threshold=args.confidence_threshold,
    )
    engine = StreamingGeolocator(context.references, drift=drift)
    sink = None
    if args.migrations_out:
        sink = open(args.migrations_out, "w", encoding="utf-8")

        @engine.on_migration
        def _write(event) -> None:
            sink.write(json.dumps(event.to_dict()) + "\n")

    observatory = _build_observatory(engine, args)
    on_chunk = None
    if observatory is not None:
        on_chunk = lambda total, t: observatory.tick(t)  # noqa: E731
    try:
        events = sorted(
            (float(timestamp), trace.user_id)
            for trace in result.traces
            for timestamp in trace.timestamps
        )
        _stream_event_batches(engine, events, args.batch_size, on_chunk=on_chunk)
        snapshot = engine.snapshot()
    finally:
        if observatory is not None:
            observatory.close()
        if sink is not None:
            sink.close()
    _print_stream_report(result.forum_name, engine, snapshot)
    if args.migrations_out:
        print(f"migration events written to {args.migrations_out}")
    _report_observatory(observatory, args)


def _cmd_replay(context, args) -> None:
    """Bulk-ingest a trace file through the streaming engine."""
    drift = None
    if args.drift_window is not None:
        drift = DriftConfig(
            window_days=args.drift_window,
            confidence_threshold=args.confidence_threshold,
        )
    engine = StreamingGeolocator(context.references, drift=drift)
    sink = None
    if args.migrations_out:
        if drift is None:
            raise SystemExit("--migrations-out requires --drift-window")
        sink = open(args.migrations_out, "w", encoding="utf-8")

        @engine.on_migration
        def _write(event) -> None:
            sink.write(json.dumps(event.to_dict()) + "\n")

    observatory = _build_observatory(engine, args)
    on_chunk = None
    if observatory is not None:
        on_chunk = lambda total, t: observatory.tick(t)  # noqa: E731
        if args.store:
            print(
                "note: --store ingests user-ordered columns, so stream-time "
                "series only sample near the stream tail and health verdicts "
                "are unreliable; prefer the JSONL replay path with the "
                "observatory"
            )
    try:
        watch = obs_metrics.Stopwatch()
        if args.store:
            with trace_span("store_load", path=str(args.traces)):
                store = TraceStore.open(args.traces)
            n_events = engine.ingest_store(
                store, max_posts=args.batch_size, on_chunk=on_chunk
            )
        else:
            traces = load_trace_set(args.traces)
            events = sorted(
                (float(timestamp), trace.user_id)
                for trace in traces
                for timestamp in trace.timestamps
            )
            _stream_event_batches(engine, events, args.batch_size, on_chunk=on_chunk)
            n_events = len(events)
        elapsed = watch.elapsed_s()
        snapshot = engine.snapshot()
    finally:
        if observatory is not None:
            observatory.close()
        if sink is not None:
            sink.close()
    name = Path(args.traces).stem
    rate = n_events / elapsed if elapsed > 0 else float("inf")
    print(f"ingested {n_events} events in {elapsed:.3f}s ({rate:,.0f} events/s)")
    _print_stream_report(name, engine, snapshot)
    if snapshot.placement is not None:
        _print_placement(f"{name} placement (streamed)", snapshot.placement)
    if args.migrations_out:
        print(f"migration events written to {args.migrations_out}")
    _report_observatory(observatory, args)


def _cmd_convert(context, args) -> None:
    """Compile a JSONL trace set into the columnar binary store."""
    store = convert_jsonl(args.traces, args.store)
    print(
        f"wrote {args.store}: {len(store)} users, "
        f"{store.total_posts()} posts (columnar, memmap-ready)"
    )


def _cmd_geolocate(context, args) -> None:
    """Geolocate a JSONL trace set (or columnar store with ``--store``)."""
    if args.shards is not None and not args.store:
        raise SystemExit("--shards requires --store (sharding partitions "
                         "the columnar store by user range)")
    if args.store:
        if args.quarantine:
            raise SystemExit(
                "--quarantine applies to JSONL input only; store conversion "
                "already rejects corrupt traces"
            )
        with trace_span("store_load", path=str(args.traces)):
            store = TraceStore.open(args.traces)
        report = CrowdGeolocator(context.references).geolocate_store(
            store,
            crowd_name=Path(args.traces).stem,
            n_shards=args.shards,
            max_workers=args.workers,
        )
        _print_placement(f"{report.crowd_name} placement", report.placement)
        print(report.summary())
        return
    if args.quarantine:
        traces, load_report = load_trace_set_resilient(args.traces)
        if not load_report.is_clean():
            print(f"load: {load_report.summary()}")
            for entry in load_report.quarantined:
                print(f"  rejected {entry.user_id}: {entry.reason}")
    else:
        traces = load_trace_set(args.traces)
    report = CrowdGeolocator(context.references).geolocate(
        traces,
        crowd_name=Path(args.traces).stem,
        quarantine=args.quarantine,
    )
    _print_placement(f"{report.crowd_name} placement", report.placement)
    print(report.summary())
    if report.data_quality is not None and not report.data_quality.is_clean():
        for entry in report.data_quality.quarantined:
            print(f"  quarantined {entry.user_id}: {entry.reason}")


def _label_str(labels: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items()))


def _print_metrics_snapshot(metrics: dict) -> None:
    scalar_rows = [
        (entry["name"], _label_str(entry["labels"]), f"{entry['value']:g}")
        for entry in metrics.get("counters", []) + metrics.get("gauges", [])
    ]
    if scalar_rows:
        print(
            ascii_table(
                ["metric", "labels", "value"],
                scalar_rows,
                title="counters & gauges",
            )
        )
    histogram_rows = [
        (
            entry["name"],
            _label_str(entry["labels"]),
            entry["count"],
            f"{entry['sum']:.4f}",
            _quantile_cell(entry, 0.5),
            _quantile_cell(entry, 0.95),
            _quantile_cell(entry, 0.99),
        )
        for entry in metrics.get("histograms", [])
    ]
    if histogram_rows:
        print()
        print(
            ascii_table(
                ["histogram", "labels", "count", "sum", "p50", "p95", "p99"],
                histogram_rows,
                title="histograms",
            )
        )


def _quantile_cell(entry: dict, q: float) -> str:
    """Bucket-interpolated quantile of a serialised histogram entry."""
    value = obs_metrics.percentile_from_counts(entry["buckets"], entry["counts"], q)
    return "-" if math.isnan(value) else f"{value:.4g}"


def _print_manifest(payload: dict) -> None:
    print(
        f"run manifest: darkcrowd {payload['command']} "
        f"(fingerprint {payload['fingerprint']})"
    )
    print(f"  created:  {payload.get('created')}")
    print(f"  seed:     {payload.get('seed')}")
    versions = payload.get("versions") or {}
    print(
        "  versions: "
        + ", ".join(f"{name} {version}" for name, version in sorted(versions.items()))
    )
    dataset = payload.get("dataset")
    if dataset:
        print(
            f"  dataset:  {dataset['path']} ({dataset['scheme']} "
            f"{dataset['sha256'][:12]}..., {dataset['bytes']} bytes)"
        )
    spans = payload.get("spans") or []
    if spans:
        print()
        print(
            ascii_table(
                ["span", "count", "wall (s)", "cpu (s)", "errors"],
                [
                    (
                        entry["name"],
                        entry["count"],
                        f"{entry['wall_s']:.4f}",
                        f"{entry['cpu_s']:.4f}",
                        entry["errors"],
                    )
                    for entry in spans
                ],
                title="span summary",
            )
        )
    metrics = payload.get("metrics") or {}
    if any(metrics.get(section) for section in ("counters", "gauges", "histograms")):
        print()
        _print_metrics_snapshot(metrics)


def _print_chrome_trace(events: list) -> None:
    by_name: dict[str, list[float]] = {}
    for event in events:
        by_name.setdefault(event["name"], []).append(float(event["dur"]) / 1e3)
    rows = [
        (name, len(durations), f"{sum(durations):.2f}", f"{max(durations):.2f}")
        for name, durations in sorted(
            by_name.items(), key=lambda item: -sum(item[1])
        )
    ]
    print(
        ascii_table(
            ["span", "events", "total (ms)", "max (ms)"],
            rows,
            title=f"chrome trace -- {len(events)} events",
        )
    )


def _print_series_artifact(path: Path) -> None:
    frame = load_series_jsonl(path)
    print(
        f"series artifact: {len(frame)} samples, {len(frame.names())} series "
        f"(interval {frame.interval_s:g}s)"
    )
    rows = []
    for name in frame.names():
        times, values = frame.series(name)
        rows.append(
            (
                name,
                len(values),
                f"{values.min():.4g}",
                f"{values.mean():.4g}",
                f"{values.max():.4g}",
                f"{values[-1]:.4g}",
            )
        )
    print(
        ascii_table(
            ["series", "samples", "min", "mean", "max", "last"],
            rows,
            title="time-series",
        )
    )


def _print_health_artifact(path: Path) -> None:
    header, events = load_health_jsonl(path)
    rules = header.get("rules") or {}
    if rules:
        print(
            ascii_table(
                ["rule", "predicate"],
                sorted(rules.items()),
                title="health rules",
            )
        )
    if not events:
        print("\nno health transitions recorded (every rule stayed ok)")
        return
    final: dict[str, str] = {}
    for event in events:
        final[event.rule] = event.new_state
    print()
    print(
        ascii_table(
            ["t", "rule", "transition", "value"],
            [
                (
                    f"{event.t:g}",
                    event.rule,
                    f"{event.old_state} -> {event.new_state}",
                    f"{event.value:.4g}",
                )
                for event in events
            ],
            title=f"health transitions -- {len(events)} events",
        )
    )
    worst = max(final.values(), key=lambda s: {"ok": 0, "warn": 1, "crit": 2}[s])
    print("\nfinal states: " + ", ".join(f"{k}={v}" for k, v in sorted(final.items())))
    print(f"overall: {worst}")


def _print_profile_artifact(payload: dict) -> None:
    print(
        f"sampling profile: {payload.get('n_samples', 0)} samples every "
        f"{payload.get('interval_s', 0):g}s"
    )
    hotspots = payload.get("hotspots") or []
    if not hotspots:
        print("no stacks captured (run too short for the sampling interval?)")
        return
    print(
        ascii_table(
            ["frame", "self", "total", "self %"],
            [
                (
                    entry["frame"],
                    entry["self_samples"],
                    entry["total_samples"],
                    f"{100 * entry['self_fraction']:.1f}",
                )
                for entry in hotspots
            ],
            title="hotspots (by self samples)",
        )
    )


def _cmd_stats(context, args) -> None:
    """Pretty-print a metrics / manifest / trace / observatory artifact."""
    path = Path(args.artifact)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SystemExit(f"cannot read {path}: {exc}")
    try:
        payload = json.loads(text)
    except ValueError:
        # JSONL artifacts (--series-out / --health-out) carry their kind
        # on the header line; anything else is genuinely unreadable.
        first = text.splitlines()[0] if text.strip() else ""
        try:
            header = json.loads(first)
        except ValueError:
            raise SystemExit(f"cannot read {path}: not JSON or JSONL")
        kind = header.get("kind") if isinstance(header, dict) else None
        try:
            if kind == "repro-series":
                _print_series_artifact(path)
                return
            if kind == "repro-health":
                _print_health_artifact(path)
                return
        except ValueError as exc:
            raise SystemExit(f"cannot read {path}: {exc}")
        raise SystemExit(
            f"{path}: not a recognised observability artifact "
            "(expected --series-out / --health-out output)"
        )
    kind = payload.get("kind") if isinstance(payload, dict) else None
    if kind == "repro-run-manifest":
        _print_manifest(payload)
    elif kind == "repro-metrics":
        _print_metrics_snapshot(payload.get("metrics") or {})
    elif kind == "repro-profile":
        _print_profile_artifact(payload)
    elif kind == "repro-series":
        _print_series_artifact(path)  # header-only JSONL (no samples yet)
    elif kind == "repro-health":
        _print_health_artifact(path)
    elif isinstance(payload, dict) and "traceEvents" in payload:
        _print_chrome_trace(payload["traceEvents"])
    else:
        raise SystemExit(
            f"{path}: not a recognised observability artifact "
            "(expected --metrics-out / --manifest-out / --trace-out / "
            "--series-out / --health-out / --profile-out output)"
        )


def _cmd_lint(context, args) -> None:
    """Run the project's static-analysis rules (see repro.lintkit)."""
    from repro.lintkit import all_rules, lint_paths, render_json, render_text

    if args.list_rules:
        rows = [(rule_id, rule.summary) for rule_id, rule in all_rules().items()]
        print(
            ascii_table(
                ["rule", "enforces"], rows, title="darkcrowd lint -- rule catalogue"
            )
        )
        return
    select = [r.strip() for r in args.select.split(",")] if args.select else None
    ignore = [r.strip() for r in args.ignore.split(",")] if args.ignore else None
    try:
        findings = lint_paths(args.paths, select=select, ignore=ignore)
    except KeyError as exc:
        raise SystemExit(f"lint: {exc.args[0]}")
    if args.format == "json":
        print(render_json(findings))
    else:
        print(render_text(findings))
    if findings:
        raise SystemExit(1)


def _cmd_dashboard(context, args) -> None:
    """Render the health-observatory dashboard from persisted artifacts."""
    from repro.obs.dashboard import render_dashboard

    if not any((args.series, args.health, args.profile, args.metrics, args.trace)):
        raise SystemExit(
            "dashboard: give at least one artifact "
            "(--series / --health / --profile / --metrics / --trace)"
        )
    try:
        rendered = render_dashboard(
            series_path=args.series,
            health_path=args.health,
            profile_path=args.profile,
            metrics_path=args.metrics,
            trace_path=args.trace,
            title=args.title,
            ansi=args.ansi,
            color=not args.no_color,
        )
    except (OSError, ValueError) as exc:
        raise SystemExit(f"dashboard: {exc}")
    if args.ansi:
        print(rendered)
        return
    out = Path(args.out)
    out.write_text(rendered, encoding="utf-8")
    print(f"dashboard written to {out} ({len(rendered)} bytes, self-contained)")


#: Flags that steer observability output rather than the computation; kept
#: out of the manifest config so the fingerprint is independent of where
#: the artifacts land.
_OBS_ARG_NAMES = frozenset(
    {
        "log_level",
        "log_json",
        "metrics_out",
        "trace_out",
        "manifest_out",
        "series_out",
        "health_out",
        "profile_out",
    }
)


def _write_obs_artifacts(args, registry, tracer) -> None:
    """Write --metrics-out / --trace-out / --manifest-out after a run."""
    manifest_out = args.manifest_out
    if manifest_out is None and args.metrics_out:
        manifest_out = str(args.metrics_out) + ".manifest.json"
    if args.metrics_out:
        path = Path(args.metrics_out)
        if path.suffix == ".prom":
            path.write_text(registry.to_prometheus(), encoding="utf-8")
        else:
            path.write_text(registry.to_json() + "\n", encoding="utf-8")
        print(f"metrics written to {path}")
    if args.trace_out:
        path = Path(args.trace_out)
        path.write_text(
            json.dumps(tracer.to_chrome_trace(), indent=2) + "\n", encoding="utf-8"
        )
        print(f"trace written to {path}")
    if manifest_out:
        config = {
            name: value
            for name, value in sorted(vars(args).items())
            if name not in _OBS_ARG_NAMES and name not in ("command", "seed")
        }
        dataset_path = getattr(args, "traces", None)
        manifest = RunManifest.collect(
            args.command,
            config=config,
            seed=args.seed,
            dataset_path=dataset_path,
            registry=registry,
            tracer=tracer,
        )
        manifest.write(manifest_out)
        print(f"manifest written to {manifest_out}")


def _cmd_all(context, args) -> None:
    _cmd_table1(context, args)
    print()
    for number in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13):
        args.number = number
        _cmd_fig(context, args)
        print()
    _cmd_table2(context, args)
    print()
    _cmd_hemisphere(context, args)
    print()
    _cmd_ablations(context, args)
    print()
    _cmd_countermeasures(context, args)
    print()
    _cmd_sweeps(context, args)


def _add_obs_args(parser: argparse.ArgumentParser, *, top_level: bool) -> None:
    """The observability flag set, shared by the top level and subcommands."""

    def default(value):
        return value if top_level else argparse.SUPPRESS

    parser.add_argument(
        "--log-level",
        default=default("WARNING"),
        help="threshold for the repro.* structured logs (DEBUG enables "
        "per-stage detail, INFO enables progress/ETA lines)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        default=default(False),
        help="emit log lines as JSONL instead of human-readable text",
    )
    parser.add_argument(
        "--metrics-out",
        default=default(None),
        metavar="PATH",
        help="write the run's metrics after the command (.prom suffix "
        "selects Prometheus text format, anything else JSON)",
    )
    parser.add_argument(
        "--trace-out",
        default=default(None),
        metavar="PATH",
        help="write a Chrome trace-viewer JSON of the run's spans "
        "(open in chrome://tracing or Perfetto)",
    )
    parser.add_argument(
        "--manifest-out",
        default=default(None),
        metavar="PATH",
        help="write the run manifest (defaults to <metrics-out>.manifest.json "
        "when --metrics-out is given)",
    )
    parser.add_argument(
        "--profile-out",
        default=default(None),
        metavar="PATH",
        help="run the command under the wall-clock sampling profiler and "
        "write the profile (JSON, or flamegraph collapsed-stack text "
        "for a .collapsed suffix)",
    )


def _add_observatory_args(parser: argparse.ArgumentParser) -> None:
    """``--series-out`` / ``--health-out``, on the streaming commands only."""
    parser.add_argument(
        "--series-out",
        default=None,
        metavar="PATH",
        help="sample engine heartbeat and registry metrics into ring-buffered "
        "time-series on stream time and write them as JSONL",
    )
    parser.add_argument(
        "--health-out",
        default=None,
        metavar="PATH",
        help="evaluate the stock SLO health rules against the sampled series "
        "and write OK/WARN/CRIT transitions as JSONL",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darkcrowd",
        description="Reproduce the tables and figures of the ICDCS 2018 paper "
        "'Time-Zone Geolocation of Crowds in the Dark Web'.",
    )
    parser.add_argument(
        "--seed", type=int, default=2016, help="dataset generation seed"
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.04,
        help="fraction of Table I's user counts to generate (1.0 = paper size)",
    )
    parser.add_argument(
        "--forum-scale",
        type=float,
        default=1.0,
        help="fraction of each forum's crowd to generate",
    )
    parser.add_argument(
        "--no-tor",
        action="store_true",
        help="scrape forums directly instead of via the simulated Tor path",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="shrink every experiment (implies --scale 0.02 --forum-scale 0.3)",
    )
    # Observability flags are accepted both before and after the
    # subcommand (the parent parser uses SUPPRESS defaults so a flag
    # given after the subcommand overrides one given before, and an
    # absent flag never clobbers the top-level default).
    _add_obs_args(parser, top_level=True)
    obs_parent = argparse.ArgumentParser(add_help=False)
    _add_obs_args(obs_parent, top_level=False)
    parents = [obs_parent]
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("table1", help="Table I", parents=parents)
    fig = sub.add_parser("fig", help="figure N (1..13)", parents=parents)
    fig.add_argument("number", type=int)
    sub.add_parser("table2", help="Table II", parents=parents)
    sub.add_parser(
        "hemisphere", help="Sec. V-F hemisphere experiments", parents=parents
    )
    sub.add_parser("ablations", help="design-choice ablations", parents=parents)
    sub.add_parser(
        "countermeasures", help="Sec. VII countermeasure studies", parents=parents
    )
    sub.add_parser(
        "sweeps", help="crowd-size / activity sensitivity sweeps", parents=parents
    )
    monitor = sub.add_parser(
        "monitor",
        help="resilient monitoring campaign (retries, faults, checkpoints)",
        parents=parents,
    )
    monitor.add_argument(
        "--forum", default="idc", choices=sorted(FORUM_SPECS), help="forum to monitor"
    )
    monitor.add_argument(
        "--poll-hours", type=float, default=1.0, help="polling interval in hours"
    )
    monitor.add_argument(
        "--days", type=float, default=None, help="campaign length in days"
    )
    monitor.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="injected transient-failure probability per forum call",
    )
    monitor.add_argument(
        "--checkpoint", default=None, metavar="PATH", help="checkpoint file to write"
    )
    monitor.add_argument(
        "--checkpoint-every",
        type=int,
        default=24,
        help="successful polls between checkpoint writes",
    )
    monitor.add_argument(
        "--resume",
        default=None,
        metavar="CHECKPOINT",
        help="resume the campaign from this checkpoint file",
    )
    monitor.add_argument(
        "--drift-window",
        type=int,
        default=None,
        metavar="DAYS",
        help="enable temporal-drift tracking with this rolling window "
        "(replays the campaign through the streaming engine)",
    )
    monitor.add_argument(
        "--confidence-threshold",
        type=float,
        default=0.5,
        help="effective confidence below which a placement is re-verified "
        "(with --drift-window)",
    )
    monitor.add_argument(
        "--migrations-out",
        default=None,
        metavar="PATH",
        help="write zone-migration events to this JSONL file "
        "(with --drift-window)",
    )
    monitor.add_argument(
        "--batch-size",
        type=int,
        default=8192,
        metavar="N",
        help="events per bulk observe_batch() call in the drift replay "
        "(with --drift-window; bit-identical for any N)",
    )
    _add_observatory_args(monitor)
    replay = sub.add_parser(
        "replay",
        help="bulk-ingest a trace file through the streaming engine "
        "(vectorised observe_batch / ingest_store path)",
        parents=parents,
    )
    replay.add_argument(
        "traces", help="path to a JSONL trace-set file (or a store with --store)"
    )
    replay.add_argument(
        "--store",
        action="store_true",
        help="treat the input as a columnar trace store (see 'convert') and "
        "ingest it column-wise without materialising per-event tuples",
    )
    replay.add_argument(
        "--batch-size",
        type=int,
        default=8192,
        metavar="N",
        help="events per bulk call (chunk size for JSONL, max posts per "
        "column chunk for --store; bit-identical for any N)",
    )
    replay.add_argument(
        "--drift-window",
        type=int,
        default=None,
        metavar="DAYS",
        help="enable temporal-drift tracking with this rolling window",
    )
    replay.add_argument(
        "--confidence-threshold",
        type=float,
        default=0.5,
        help="effective confidence below which a placement is re-verified "
        "(with --drift-window)",
    )
    replay.add_argument(
        "--migrations-out",
        default=None,
        metavar="PATH",
        help="write zone-migration events to this JSONL file "
        "(with --drift-window)",
    )
    _add_observatory_args(replay)
    geolocate = sub.add_parser(
        "geolocate",
        help="geolocate a JSONL trace set (see datasets.save_trace_set)",
        parents=parents,
    )
    geolocate.add_argument(
        "traces", help="path to a JSONL trace-set file (or a store with --store)"
    )
    geolocate.add_argument(
        "--quarantine",
        action="store_true",
        help="set corrupt traces aside and report them instead of failing",
    )
    geolocate.add_argument(
        "--store",
        action="store_true",
        help="treat the input as a columnar trace store (see 'convert') and "
        "run the out-of-core pipeline",
    )
    geolocate.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="with --store: split the store into N user-range shards "
        "(default: one per 65,536 users; the verdict is the same for any N)",
    )
    geolocate.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="M",
        help="with --store: fan shards out over M worker processes "
        "(workers open the memmapped store columns themselves)",
    )
    convert = sub.add_parser(
        "convert",
        help="compile a JSONL trace set into the columnar binary store",
        parents=parents,
    )
    convert.add_argument("traces", help="path to a JSONL trace-set file")
    convert.add_argument("store", help="store directory to create")
    stats = sub.add_parser(
        "stats",
        help="pretty-print an observability artifact written by "
        "--metrics-out / --manifest-out / --trace-out / --series-out / "
        "--health-out / --profile-out",
        parents=parents,
    )
    stats.add_argument("artifact", help="path to the artifact JSON/JSONL file")
    dashboard = sub.add_parser(
        "dashboard",
        help="render a self-contained HTML (or ANSI) health dashboard from "
        "observatory artifacts",
        parents=parents,
    )
    dashboard.add_argument(
        "--series", default=None, metavar="PATH", help="--series-out artifact"
    )
    dashboard.add_argument(
        "--health", default=None, metavar="PATH", help="--health-out artifact"
    )
    dashboard.add_argument(
        "--profile", default=None, metavar="PATH", help="--profile-out artifact"
    )
    dashboard.add_argument(
        "--metrics", default=None, metavar="PATH", help="--metrics-out artifact"
    )
    dashboard.add_argument(
        "--trace", default=None, metavar="PATH", help="--trace-out artifact"
    )
    dashboard.add_argument(
        "--out",
        default="dashboard.html",
        metavar="PATH",
        help="HTML output path (ignored with --ansi)",
    )
    dashboard.add_argument(
        "--ansi",
        action="store_true",
        help="print an ANSI terminal report instead of writing HTML",
    )
    dashboard.add_argument(
        "--no-color",
        action="store_true",
        help="with --ansi: plain text without colour codes",
    )
    dashboard.add_argument(
        "--title",
        default="darkcrowd health observatory",
        help="dashboard page title",
    )
    lint = sub.add_parser(
        "lint",
        help="project-aware static analysis, one file at a time (rules "
        "DC001..DC005 and DC007..DC011; see --list-rules)",
        parents=parents,
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to check (default: src tests)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json is schema-stable for tooling)",
    )
    lint.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--ignore",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    sub.add_parser("all", help="everything", parents=parents)
    return parser


_COMMANDS = {
    "table1": _cmd_table1,
    "fig": _cmd_fig,
    "table2": _cmd_table2,
    "hemisphere": _cmd_hemisphere,
    "ablations": _cmd_ablations,
    "countermeasures": _cmd_countermeasures,
    "sweeps": _cmd_sweeps,
    "monitor": _cmd_monitor,
    "replay": _cmd_replay,
    "geolocate": _cmd_geolocate,
    "convert": _cmd_convert,
    "stats": _cmd_stats,
    "dashboard": _cmd_dashboard,
    "lint": _cmd_lint,
    "all": _cmd_all,
}

#: Commands that inspect files or artifacts and never need the synthetic
#: experiment context (building it costs seconds of dataset generation).
_CONTEXT_FREE_COMMANDS = frozenset({"stats", "dashboard", "lint"})


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.fast:
        args.scale = min(args.scale, 0.02)
        args.forum_scale = min(args.forum_scale, 0.3)
    configure_logging(args.log_level, json_lines=args.log_json)
    # Every CLI run gets a fresh registry; spans are collected only when an
    # artifact will be written (tracing has per-span cost, metrics do not).
    registry = obs_metrics.MetricsRegistry()
    want_spans = bool(args.trace_out or args.metrics_out or args.manifest_out)
    tracer = obs_tracing.Tracer() if want_spans else obs_tracing.get_tracer()
    previous_registry = obs_metrics.get_registry()
    previous_tracer = obs_tracing.get_tracer()
    obs_metrics.set_registry(registry)
    if want_spans:
        obs_tracing.set_tracer(tracer)
    profiler = SamplingProfiler() if args.profile_out else None
    try:
        if profiler is not None:
            profiler.start()
        if args.command in _CONTEXT_FREE_COMMANDS:
            _COMMANDS[args.command](None, args)
        else:
            context = make_context(seed=args.seed, scale=args.scale)
            _COMMANDS[args.command](context, args)
        if profiler is not None:
            profiler.stop()
            path = profiler.write(args.profile_out)
            print(f"profile written to {path} ({profiler.n_samples} samples)")
        _write_obs_artifacts(args, registry, tracer)
    finally:
        if profiler is not None:
            profiler.stop()
        obs_metrics.set_registry(previous_registry)
        obs_tracing.set_tracer(previous_tracer)
    return 0


if __name__ == "__main__":
    sys.exit(main())
