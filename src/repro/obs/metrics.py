"""Process-wide metrics registry: counters, gauges, bucketed histograms.

The pipeline's instrumentation points (profile builds, store loads, EM
runs, retries, polls, snapshots) all report through one
:class:`MetricsRegistry`.  Three properties drive the design:

* **No-op by default.**  The module-level registry starts as a
  :class:`NullRegistry` whose metric handles are shared do-nothing
  singletons, so library users who never opt in pay one attribute load
  and one empty method call per instrumentation point -- no locks, no
  dict lookups, no allocation.  :func:`enable` swaps in a live registry
  (the CLI does this; tests use :func:`use_registry`).
* **Thread-safe.**  Metric creation is serialised on a registry lock and
  every metric guards its own state with its own lock, so concurrent
  updates from pool callbacks and monitor threads never lose increments.
* **Two exposition formats.**  :meth:`MetricsRegistry.to_prometheus`
  renders the text format a Prometheus file-scrape ingests directly;
  :meth:`MetricsRegistry.snapshot` / :meth:`MetricsRegistry.to_json`
  produce the JSON document the CLI writes with ``--metrics-out`` and
  the :class:`~repro.obs.manifest.RunManifest` embeds.

Metric names follow ``repro_<subsystem>_<name>_<unit>`` (see DESIGN
"Observability"): e.g. ``repro_shard_fallback_total``,
``repro_streaming_snapshot_seconds``.  Labels are passed as keyword
arguments and become Prometheus labels:
``counter("repro_core_geolocate_runs_total", pipeline="store")`` renders
as ``repro_core_geolocate_runs_total{pipeline="store"}``.
"""

from __future__ import annotations

import json
import math
import threading
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from time import perf_counter

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "Stopwatch",
    "DEFAULT_BUCKETS",
    "percentile_from_counts",
    "get_registry",
    "set_registry",
    "enable",
    "disable",
    "use_registry",
    "counter",
    "gauge",
    "histogram",
]

#: Default histogram bucket upper bounds (seconds-flavoured, Prometheus
#: convention: a value lands in the first bucket whose bound is >= it).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)


def percentile_from_counts(
    buckets: Iterable[float], counts: Iterable[int], q: float
) -> float:
    """Estimate the *q*-quantile (``0 < q <= 1``) from bucketed counts.

    *buckets* are the finite upper bounds and *counts* the per-bucket
    (non-cumulative) tallies with a trailing ``+Inf`` slot -- exactly the
    shape :meth:`Histogram.bucket_counts` returns and the JSON metrics
    snapshot persists, so the CLI and the dashboard can compute
    percentiles from serialised documents.  The estimate interpolates
    linearly inside the landing bucket (Prometheus ``histogram_quantile``
    convention); a quantile landing in the ``+Inf`` bucket degrades to
    the largest finite bound.  Returns ``nan`` for an empty histogram.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    bounds = [float(b) for b in buckets]
    tallies = [int(c) for c in counts]
    if len(tallies) != len(bounds) + 1:
        raise ValueError(
            f"expected {len(bounds) + 1} counts (one per bucket plus +Inf), "
            f"got {len(tallies)}"
        )
    total = sum(tallies)
    if total == 0:
        return math.nan
    rank = q * total
    cumulative = 0
    for i, tally in enumerate(tallies):
        if tally == 0:
            continue
        previous = cumulative
        cumulative += tally
        if cumulative >= rank:
            if i == len(bounds):  # +Inf bucket: no finite upper edge
                return bounds[-1]
            lower = bounds[i - 1] if i > 0 else 0.0
            fraction = (rank - previous) / tally
            return lower + (bounds[i] - lower) * fraction
    return bounds[-1]  # pragma: no cover - unreachable, rank <= total


class Stopwatch:
    """Monotonic elapsed-time probe for code that *consumes* the duration.

    ``Histogram.time()`` covers the common record-into-a-histogram case;
    a :class:`Stopwatch` is for call sites that need the elapsed seconds
    as a value (throughput lines, structured-log fields, report
    attributes).  It is the one sanctioned home of
    :func:`time.perf_counter` outside ``repro/obs`` -- lint rule DC011
    flags naked ``perf_counter()`` timing in library code.
    """

    __slots__ = ("_start",)

    def __init__(self) -> None:
        self._start = perf_counter()

    def elapsed_s(self) -> float:
        """Seconds since construction (or the last :meth:`restart`)."""
        return perf_counter() - self._start

    def restart(self) -> float:
        """Reset the origin; returns the elapsed seconds up to the reset."""
        elapsed = self.elapsed_s()
        self._start = perf_counter()
        return elapsed


def _validate_name(name: str) -> str:
    if not name or not all(c.isalnum() or c == "_" for c in name):
        raise ValueError(f"invalid metric name {name!r} (use [a-zA-Z0-9_])")
    return name


class Counter:
    """Monotonically increasing value (events, users, seconds spent)."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (by {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that goes up and down (dirty-set size, resident users)."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Bucketed distribution (latencies, batch sizes).

    *buckets* are finite upper bounds in increasing order; an implicit
    ``+Inf`` bucket always terminates the list.  An observation lands in
    the first bucket whose bound is **>=** the value (Prometheus ``le``
    semantics: edges are inclusive).
    """

    __slots__ = ("name", "labels", "buckets", "_lock", "_counts", "_sum", "_count")

    def __init__(
        self,
        name: str,
        labels: tuple[tuple[str, str], ...] = (),
        buckets: Iterable[float] | None = None,
    ) -> None:
        self.name = name
        self.labels = labels
        bounds = tuple(float(b) for b in (buckets or DEFAULT_BUCKETS))
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram buckets must strictly increase: {bounds}")
        if any(not math.isfinite(b) for b in bounds):
            raise ValueError("histogram buckets must be finite (+Inf is implicit)")
        self.buckets = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @contextmanager
    def time(self) -> Iterator[None]:
        """Observe the wall time of the ``with`` body (exception-safe)."""
        start = perf_counter()
        try:
            yield
        finally:
            self.observe(perf_counter() - start)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def bucket_counts(self) -> list[int]:
        """Per-bucket (non-cumulative) counts; last entry is the +Inf bucket."""
        with self._lock:
            return list(self._counts)

    def percentile(self, q: float) -> float:
        """Bucket-interpolated *q*-quantile (``nan`` while empty)."""
        return percentile_from_counts(self.buckets, self.bucket_counts(), q)


class _NullMetric:
    """Shared do-nothing handle behind the disabled default registry."""

    __slots__ = ()
    name = ""
    labels: tuple = ()
    buckets: tuple = ()
    value = 0.0
    count = 0
    sum = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def time(self):
        return _NULL_CONTEXT

    def bucket_counts(self) -> list[int]:
        return []

    def percentile(self, q: float) -> float:
        return math.nan


class _NullContext:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


_NULL_CONTEXT = _NullContext()
_NULL_METRIC = _NullMetric()


class MetricsRegistry:
    """Live registry: named metrics, created on first use, exposed two ways."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], object] = {}
        self._help: dict[str, str] = {}

    def _get(
        self,
        kind: type,
        name: str,
        help: str,
        labels: dict[str, str],
        **kwargs,
    ):
        key = (_validate_name(name), tuple(sorted((k, str(v)) for k, v in labels.items())))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = kind(name, key[1], **kwargs)
                self._metrics[key] = metric
                if help:
                    self._help.setdefault(name, help)
            elif not isinstance(metric, kind):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {kind.__name__}"
                )
            return metric

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] | None = None,
        **labels: str,
    ) -> Histogram:
        return self._get(Histogram, name, help, labels, buckets=buckets)

    # -- exposition --------------------------------------------------------

    def _sorted_metrics(self) -> list:
        with self._lock:
            return [self._metrics[key] for key in sorted(self._metrics)]

    def snapshot(self) -> dict:
        """JSON-serialisable dump of every metric's current state."""
        out: dict[str, list[dict]] = {"counters": [], "gauges": [], "histograms": []}
        for metric in self._sorted_metrics():
            labels = dict(metric.labels)
            if isinstance(metric, Counter):
                out["counters"].append(
                    {"name": metric.name, "labels": labels, "value": metric.value}
                )
            elif isinstance(metric, Gauge):
                out["gauges"].append(
                    {"name": metric.name, "labels": labels, "value": metric.value}
                )
            else:
                out["histograms"].append(
                    {
                        "name": metric.name,
                        "labels": labels,
                        "buckets": list(metric.buckets),
                        "counts": metric.bucket_counts(),
                        "sum": metric.sum,
                        "count": metric.count,
                    }
                )
        return out

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps({"kind": "repro-metrics", "metrics": self.snapshot()}, indent=indent)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (0.0.4), file-scrape ready."""
        lines: list[str] = []
        seen_types: set[str] = set()

        def _render_labels(labels, extra: tuple[tuple[str, str], ...] = ()) -> str:
            items = [*labels, *extra]
            if not items:
                return ""
            body = ",".join(f'{k}="{_escape(v)}"' for k, v in items)
            return "{" + body + "}"

        def _escape(value: str) -> str:
            return str(value).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")

        def _header(name: str, kind: str) -> None:
            if name in seen_types:
                return
            seen_types.add(name)
            help_text = self._help.get(name)
            if help_text:
                lines.append(f"# HELP {name} {_escape(help_text)}")
            lines.append(f"# TYPE {name} {kind}")

        for metric in self._sorted_metrics():
            if isinstance(metric, Counter):
                _header(metric.name, "counter")
                lines.append(
                    f"{metric.name}{_render_labels(metric.labels)} {_format(metric.value)}"
                )
            elif isinstance(metric, Gauge):
                _header(metric.name, "gauge")
                lines.append(
                    f"{metric.name}{_render_labels(metric.labels)} {_format(metric.value)}"
                )
            else:
                _header(metric.name, "histogram")
                cumulative = 0
                counts = metric.bucket_counts()
                for bound, count in zip(metric.buckets, counts):
                    cumulative += count
                    lines.append(
                        f"{metric.name}_bucket"
                        f"{_render_labels(metric.labels, (('le', _format(bound)),))}"
                        f" {cumulative}"
                    )
                cumulative += counts[-1]
                lines.append(
                    f"{metric.name}_bucket"
                    f"{_render_labels(metric.labels, (('le', '+Inf'),))} {cumulative}"
                )
                lines.append(
                    f"{metric.name}_sum{_render_labels(metric.labels)} "
                    f"{_format(metric.sum)}"
                )
                lines.append(
                    f"{metric.name}_count{_render_labels(metric.labels)} "
                    f"{metric.count}"
                )
        return "\n".join(lines) + "\n"


def _format(value: float) -> str:
    """Render a float the way Prometheus likes: integral values lose the dot."""
    value = float(value)
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class NullRegistry:
    """The zero-overhead default: every handle is the shared no-op metric."""

    enabled = False

    def counter(self, name: str, help: str = "", **labels: str) -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str, help: str = "", **labels: str) -> _NullMetric:
        return _NULL_METRIC

    def histogram(
        self, name: str, help: str = "", buckets=None, **labels: str
    ) -> _NullMetric:
        return _NULL_METRIC

    def snapshot(self) -> dict:
        return {"counters": [], "gauges": [], "histograms": []}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps({"kind": "repro-metrics", "metrics": self.snapshot()}, indent=indent)

    def to_prometheus(self) -> str:
        return "\n"


_NULL_REGISTRY = NullRegistry()
_registry: MetricsRegistry | NullRegistry = _NULL_REGISTRY


def get_registry() -> MetricsRegistry | NullRegistry:
    """The active registry (a :class:`NullRegistry` until :func:`enable`)."""
    return _registry


def set_registry(registry: MetricsRegistry | NullRegistry) -> None:
    global _registry
    _registry = registry


def enable() -> MetricsRegistry:
    """Install (or return the already-installed) live registry."""
    global _registry
    if not isinstance(_registry, MetricsRegistry):
        _registry = MetricsRegistry()
    return _registry


def disable() -> None:
    """Restore the no-op default."""
    set_registry(_NULL_REGISTRY)


@contextmanager
def use_registry(registry: MetricsRegistry | NullRegistry) -> Iterator:
    """Temporarily swap the active registry (test isolation helper)."""
    previous = get_registry()
    set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


def counter(name: str, help: str = "", **labels: str):
    """Counter handle from the active registry (no-op while disabled)."""
    return _registry.counter(name, help, **labels)


def gauge(name: str, help: str = "", **labels: str):
    """Gauge handle from the active registry (no-op while disabled)."""
    return _registry.gauge(name, help, **labels)


def histogram(name: str, help: str = "", buckets=None, **labels: str):
    """Histogram handle from the active registry (no-op while disabled)."""
    return _registry.histogram(name, help, buckets=buckets, **labels)
