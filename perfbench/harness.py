"""Measurement machinery shared by every workload.

A workload's *job* is one complete run of what a user asks for (a census
of crowds, every command over one store, a monitoring campaign).  Jobs
report into a :class:`Job` recorder: the wall time of each call into the
program under a key naming the call, checked operations and, in the
traced run, spans around every call.  Spans are recorded from the
benchmark's own code with a private :class:`repro.obs.tracing.Tracer`;
nothing inside the program is instrumented or switched on, except that
the traced run installs a live metrics registry so the program's own
counters can be read.

Benchmark-side work inside a job (oracle comparisons, file sizes) runs in
:meth:`Job.check`, which is excluded from the job's wall time and, as a
``bench.check`` span, from the traced wall the stage-sum check divides by.
"""

from __future__ import annotations

import os
import resource
import subprocess
import time
import warnings
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

#: Stage self-times must cover at least this share of the traced wall.
STAGE_SUM_TOLERANCE = 0.05
CHECK_SPAN = "bench.check"
ROOT_SPAN = "job"

#: Untraced jobs probe the host's speed at most this often (seconds).
PROBE_EVERY_S = 0.1
#: The probe reading (seconds) at which timings are reported unscaled.
#: It fixes the scale of the results only; runs compare because every
#: run is scaled to the same reading.
PROBE_REF_S = 0.003

_PROBE_VALUES = np.random.default_rng(0).random(40_000)
_PROBE_BINS = np.arange(40_000) * 7 % 24
#: Larger than a core's share of a shared last-level cache, so a pass
#: over it runs at the memory bandwidth other tenants leave.
_PROBE_STREAM = np.ones(2_000_000)


def probe_s() -> float:
    """Seconds for a fixed mix of interpreter, numpy and memory-bound work.

    On a shared host, other tenants can slow this process down by 1.8x
    for seconds to minutes at a time.  The probe slows down with it, so
    timings scaled by the probe's reference reading over its reading in
    the same run compare across runs made at different host loads.  The
    memory pass comes first, so the probe starts from the same cache
    state whatever the program left behind.
    """
    start = perf_counter()
    _PROBE_STREAM.sum()
    total = 0
    for value in range(20_000):
        total += value
    ordered = np.sort(_PROBE_VALUES)
    np.bincount(_PROBE_BINS, weights=ordered, minlength=24)
    counts: dict[int, int] = {}
    for value in range(4_000):
        counts[value % 97] = counts.get(value % 97, 0) + 1
    return perf_counter() - start


def host_slowdown(jobs: list["Job"]) -> float:
    """This run's probe reading (10th percentile) over :data:`PROBE_REF_S`."""
    probes = [value for job in jobs for value in job.probes]
    return percentile(probes, 10) / PROBE_REF_S


def worker_count() -> int:
    """Cores this process may run on (the sharded pool's size)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class Job:
    """What one job recorded; see the module docstring."""

    def __init__(self, tracer=None, drop: frozenset = frozenset()) -> None:
        self.tracer = tracer
        self.drop = drop
        #: Wall seconds of each timed call, by a key naming the call within
        #: the job; every job of a workload makes the same calls on the same
        #: inputs, so a key names the same work in every job.
        self.units: dict = {}
        self.verdicts: set = set()
        self.events: dict = {}
        #: Host-speed probes taken between timed calls (untraced jobs only).
        self.probes: list[float] = []
        self.last_probe = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.excluded_s = 0.0
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = {}
        self.run_s = 0.0

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    def span(self, name: str):
        """A span around one layer call (a no-op when not tracing)."""
        if self.tracer is None or name in self.drop:
            return nullcontext()
        return self.tracer.span(name)

    @contextmanager
    def check(self):
        """Benchmark-side work, excluded from the job's timings."""
        start = perf_counter()
        try:
            with self.span(CHECK_SPAN):
                yield
        finally:
            self.excluded_s += perf_counter() - start

    def verify(self, ok: bool, what: str) -> None:
        """Count one checked operation, and its failure when *ok* is false."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))

    @contextmanager
    def timed(self, key, *, verdict: bool = False, events: int = 0):
        """Time the call named *key*: a verdict request and/or the intake of *events*."""
        start = perf_counter()
        yield
        self.add(key, perf_counter() - start, verdict=verdict, events=events)
        self.probe()

    def add(self, key, seconds: float, *, verdict: bool = False, events: int = 0) -> None:
        self.units[key] = seconds
        if verdict:
            self.verdicts.add(key)
        if events:
            self.events[key] = events

    def probe(self) -> None:
        """Probe the host's speed, when untraced and not probed lately."""
        if not self.traced and perf_counter() - self.last_probe >= PROBE_EVERY_S:
            start = perf_counter()
            self.probes.append(probe_s())
            self.last_probe = perf_counter()
            self.excluded_s += self.last_probe - start


def _is_pool_fallback(warning: warnings.WarningMessage) -> bool:
    return issubclass(warning.category, RuntimeWarning) and (
        "fan-out failed" in str(warning.message)
        or "parallel profile build failed" in str(warning.message)
    )


def run_job(workload, tracer=None, drop: frozenset = frozenset()) -> Job:
    """Run one job; exceptions and pool-fallback warnings count as failures."""
    job = Job(tracer, drop)
    root = tracer.span(ROOT_SPAN) if tracer is not None else nullcontext()
    start = perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            with root:
                workload.job(job)
        except Exception as exc:  # a failed operation, reported, not fatal
            job.verify(False, f"{type(exc).__name__}: {exc}")
    job.run_s = perf_counter() - start - job.excluded_s
    for warning in caught:
        if _is_pool_fallback(warning):
            job.verify(False, f"pool fallback: {warning.message}")
    return job


def run_for(workload, seconds: float, **kwargs) -> list[Job]:
    """Closed loop: one caller starts jobs back to back until *seconds* pass."""
    jobs: list[Job] = []
    start = perf_counter()
    while True:
        job = run_job(workload, **kwargs)
        jobs.append(job)
        if job.failed or perf_counter() - start >= seconds:
            return jobs


def best_units(jobs: list[Job]) -> dict:
    """Each timed call's fastest wall time over *jobs*.

    On a shared host other tenants slow a call down in bursts; the fastest
    of a call's repeats is the least disturbed measure of what it costs.
    """
    best: dict = {}
    for job in jobs:
        for key, seconds in job.units.items():
            best[key] = min(seconds, best.get(key, seconds))
    return best


# -- traces --------------------------------------------------------------------


def stage_times(root) -> tuple[dict[str, float], float, float]:
    """Per-stage self-times of one job's span tree.

    Returns ``(self_s by span name, stage sum, traced wall)``; the traced
    wall is the root's wall minus the benchmark's own ``bench.check``
    spans, and so is every stage's self-time.
    """
    stages: dict[str, float] = {}
    checks = 0.0
    for span in root.walk():
        if span is root:
            continue
        if span.name == CHECK_SPAN:
            checks += span.wall_s
            continue
        own = span.wall_s - sum(child.wall_s for child in span.children)
        stages[span.name] = stages.get(span.name, 0.0) + own
    return stages, sum(stages.values()), root.wall_s - checks


def stage_sum_ok(ratio: float) -> bool:
    return abs(ratio - 1.0) <= STAGE_SUM_TOLERANCE


# -- memory ----------------------------------------------------------------------


def reset_peak_rss() -> bool:
    """Restart this process's peak-RSS counter (Linux ``clear_refs`` 5)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    """Peak resident MB of this process or of any pool worker it reaped."""
    own = None
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    own = float(line.split()[1]) / 1024.0
    except OSError:
        pass
    if own is None:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return max(own, children)


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


# -- child processes ---------------------------------------------------------------


def _child_pids() -> list[int]:
    """Live children of this process, read from ``/proc``."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name in parentheses may hold spaces; ppid follows it.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children(grace_s: float = 10.0) -> None:
    """Stop every process the run started and wait until each has ended.

    The program's pools join their workers, but shared-memory blocks start
    multiprocessing's resource tracker, which would otherwise outlive this
    process.  Anything still running after that is terminated and reaped.
    """
    import multiprocessing
    import signal
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(grace_s)
    resource_tracker._resource_tracker._stop()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGTERM)
            deadline = perf_counter() + grace_s
            while os.waitpid(pid, os.WNOHANG) == (0, 0):
                if perf_counter() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    break
                time.sleep(0.01)
        except ChildProcessError:
            pass  # not our child to reap, or already reaped
        except ProcessLookupError:
            pass


# -- statistics and provenance ------------------------------------------------------


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return percentile(values, 50)


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or None outside a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=20,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment_stamp(root: Path, workload: str, seed: int, config: dict) -> dict:
    """Machine, versions, commit and a manifest fingerprint of config + seed."""
    import platform

    from repro.obs.manifest import RunManifest, collect_versions

    manifest = RunManifest(
        command=f"perfbench {workload}",
        config=config,
        seed=seed,
        versions=collect_versions(),
    )
    return {
        "cpu_count": os.cpu_count(),
        "workers": worker_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(root),
        "manifest_fingerprint": manifest.fingerprint(),
        "config": config,
        "seed": seed,
    }
