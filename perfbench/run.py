"""Run one benchmark workload; the last line of stdout is its JSON result.

    python3 perfbench/run.py --workload census --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, each call
into the program taken at its fastest repeat over the run's jobs.
``--trace 1`` runs untraced jobs for half the window and traced jobs for
the other half, and reports the per-layer metrics (stage self-times and
counts) plus the tracing overhead.  Inputs are made from ``--seed``; set-up
runs five times and its median is ``setup_s``.  The program is imported
from ``src/`` of the checkout this file sits in; scratch files go to
``.perfbench/work`` and are removed on exit, results and span dumps go to
``.perfbench/results``.  See ``perfbench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 5

#: name -> unit of every end-to-end metric (reported with --trace 0).
END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
    "ingest_events_per_s": "events/s",
    "verdict_accuracy": "ratio",
}

#: Per-layer stage self-times: metric name -> the span it sums.
LAYER_TIMES = {
    "quality.validate_s": "quality.validate",
    "batch.profile_build_s": "batch.profile_build",
    "batch.from_store_s": "batch.from_store",
    "flatness.polish_s": "flatness.polish",
    "placement.place_s": "placement.place",
    "em.mixture_s": "em.mixture",
    "geolocate.assemble_s": "geolocate.assemble",
    "store.open_s": "store.open",
    "shard.fanout_s": "shard.fanout",
    "shard.merge_s": "shard.merge",
    "shard.assemble_s": "shard.assemble",
    "streaming.observe_s": "streaming.observe",
    "streaming.ingest_store_s": "streaming.ingest_store",
    "streaming.snapshot_s": "streaming.snapshot",
    "streaming.snapshot_cold_s": "streaming.snapshot_cold",
    "streaming.checkpoint_save_s": "streaming.checkpoint_save",
    "streaming.checkpoint_load_s": "streaming.checkpoint_load",
}

#: Per-layer counts read straight from a job's counters.
LAYER_COUNTS = {
    "flatness.rounds": "count",
    "flatness.users_removed": "count",
    "em.iterations": "count",
    "em.stall_cutoffs": "count",
    "shard.worker_cpu_s": "s",
    "shard.result_bytes": "bytes",
    "streaming.events": "count",
    "drift.migrations_change_point": "count",
    "drift.migrations_confidence": "count",
    "drift.migrations_refine": "count",
}

#: Per-layer metrics derived from counters and samples, with their units.
LAYER_DERIVED = {
    "flatness.useful_round_frac": "ratio",
    "emd.rows_per_user": "rows/user",
    "shard.parallel_eff": "ratio",
    "streaming.chunk_p50_ms": "ms",
    "streaming.dirty_per_snapshot": "count",
    "streaming.checkpoint_bytes": "bytes",
    "drift.stale_ratio": "ratio",
    "drift.user_accuracy": "ratio",
    "trace.stage_sum_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

PER_LAYER = {
    **{name: "s" for name in LAYER_TIMES},
    **LAYER_COUNTS,
    **LAYER_DERIVED,
}


def bootstrap() -> None:
    """Put the checkout's ``src`` and this directory on the import path."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no src/repro under {ROOT}; nothing to measure")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(job, stages: dict, stage_sum: float, wall: float) -> dict:
    """Every per-layer metric of one traced job."""
    from harness import median

    counts, samples = job.counts, job.samples
    values = {name: stages.get(span, 0.0) for name, span in LAYER_TIMES.items()}
    values.update({name: float(counts[name]) for name in LAYER_COUNTS})

    def sample_median(name: str, scale: float = 1.0) -> float:
        return median(samples[name]) * scale if samples.get(name) else 0.0

    def sample_mean(name: str) -> float:
        return sum(samples[name]) / len(samples[name]) if samples.get(name) else 0.0

    values.update(
        {
            "flatness.useful_round_frac": _ratio(
                counts["flatness.useful_rounds"], counts["flatness.rounds"]
            ),
            "emd.rows_per_user": _ratio(counts["emd.rows"], counts["emd.users"]),
            "shard.parallel_eff": _ratio(
                counts["shard.worker_cpu_s"], counts["shard.worker_slots_s"]
            ),
            "streaming.chunk_p50_ms": sample_median("chunk_gap_s", 1e3),
            "streaming.dirty_per_snapshot": sample_mean("dirty_per_snapshot"),
            "streaming.checkpoint_bytes": sample_median("checkpoint_bytes"),
            "drift.stale_ratio": sample_median("stale_ratio"),
            "drift.user_accuracy": sample_median("monitor_accuracy"),
            "trace.stage_sum_ratio": _ratio(stage_sum, wall),
        }
    )
    return values


def end_to_end(workload, jobs, rss_mb: float) -> dict:
    """The user-visible metrics, each call of a job taken at its best repeat.

    ``run_s`` sums the job's timed calls, which cover all of the program's
    work in a job; the verdict percentiles are over the job's verdict calls.
    Timings are scaled by the run's host slowdown; the unscaled values and
    the factor go to the extra record.
    """
    from harness import best_units, host_slowdown, median, percentile

    best = best_units(jobs)
    verdicts = set().union(*(job.verdicts for job in jobs))
    events = {key: count for job in jobs for key, count in job.events.items()}
    raw = {
        "run_s": sum(best.values()),
        "setup_s": median(workload.setup_times),
        "verdict_p50_ms": percentile([best[key] for key in verdicts], 50) * 1e3,
        "verdict_p90_ms": percentile([best[key] for key in verdicts], 90) * 1e3,
        "ingest_events_per_s": _ratio(sum(events.values()), sum(best[key] for key in events)),
    }
    slowdown = host_slowdown(jobs)
    values = {name: value / slowdown for name, value in raw.items()}
    values["ingest_events_per_s"] = raw["ingest_events_per_s"] * slowdown
    values["peak_rss_mb"] = rss_mb
    values["verdict_accuracy"] = workload.accuracy
    return values, {"wall": raw, "host_slowdown": slowdown}


def measure(
    workload, seconds: float, trace: bool, drop: frozenset = frozenset()
) -> tuple[dict, list, dict]:
    """Jobs for *seconds*; returns (metric values, jobs, extra record)."""
    from harness import median, peak_rss_mb, reset_peak_rss, run_for, stage_sum_ok, stage_times
    from repro.obs.tracing import Tracer

    if not trace:
        reset_peak_rss()
        jobs = run_for(workload, seconds)
        values, extra = end_to_end(workload, jobs, peak_rss_mb())
        return values, jobs, extra
    untraced = run_for(workload, seconds / 2)
    tracer = Tracer()
    traced = run_for(workload, seconds / 2, tracer=tracer, drop=drop)
    per_job = []
    for job, root in zip(traced, tracer.roots):
        stages, stage_sum, wall = stage_times(root)
        values = layer_metrics(job, stages, stage_sum, wall)
        if not stage_sum_ok(values["trace.stage_sum_ratio"]):
            job.verify(
                False,
                f"stage self-times cover {values['trace.stage_sum_ratio']:.3f} "
                "of the traced wall",
            )
        per_job.append(values)
    values = {name: median([job_values[name] for job_values in per_job]) for name in per_job[0]}
    values["trace.overhead_ratio"] = median([job.run_s for job in traced]) / median(
        [job.run_s for job in untraced]
    )
    return values, untraced + traced, {"spans": tracer.to_dict()}


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    sizes=None,
    state: Path = STATE,
    drop: frozenset = frozenset(),
) -> tuple[dict, dict]:
    """Set up, measure and check one workload; returns (result, record).

    *sizes* and *drop* (span names the traced run leaves out) exist for
    the self-test; the command line always runs the default sizes.
    """
    from harness import best_units, environment_stamp
    from workloads import WORKLOADS

    workdir = state / "work" / f"{name}-{os.getpid()}"
    workload = WORKLOADS[name](seed, workdir, sizes)
    try:
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            gc.collect()  # the previous set-up's garbage is not this one's cost
            start = perf_counter()
            workload.setup()
            workload.setup_times.append(perf_counter() - start)
        workload.prepare()
        values, jobs, extra = measure(workload, seconds, trace, drop)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER if trace else END_TO_END
    attempted = sum(job.attempted for job in jobs)
    failed = sum(job.failed for job in jobs)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {metric: {"value": values[metric], "unit": unit} for metric, unit in units.items()},
    }
    stamp = environment_stamp(
        ROOT, name, seed, {**workload.config(), "seconds": seconds, "trace": int(trace)}
    )
    run_s_by_call: dict[str, float] = {}
    for key, best_s in best_units(jobs).items():
        kind = key[0] if isinstance(key, tuple) else key
        run_s_by_call[kind] = run_s_by_call.get(kind, 0.0) + best_s
    record = {
        "stamp": stamp,
        "result": result,
        "setup_s": workload.setup_times,
        "run_s_by_call": run_s_by_call,
        "jobs": [
            {"run_s": job.run_s, "attempted": job.attempted, "failed": job.failed,
             "failures": job.failures[:10]}
            for job in jobs
        ],
        **extra,
    }
    results = state / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()
    from harness import stop_children
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; options: {sorted(WORKLOADS)}")
    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_children()
    for job in record["jobs"]:
        for failure in job["failures"][:3]:
            print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print("perfbench: " + json.dumps(record["stamp"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
