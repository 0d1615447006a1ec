"""Observability layer: metrics, span tracing, structured logs, manifests.

Long collection campaigns and million-user geolocation runs are only
operable when the pipeline says what it is doing while it does it.  This
package holds the four primitives every other layer reports through:

* :mod:`repro.obs.metrics`  -- process-wide registry of counters, gauges
  and bucketed histograms; no-op by default, Prometheus text + JSON
  exposition when enabled;
* :mod:`repro.obs.tracing`  -- ``trace_span``/``@traced`` in-memory span
  trees with wall and CPU time, exportable as JSON and as a Chrome
  trace-viewer file;
* :mod:`repro.obs.logs`     -- per-subsystem stdlib loggers
  (``repro.core``, ``repro.forum``, ...) with a JSONL formatter and the
  ``log_event`` structured-emission helper;
* :mod:`repro.obs.progress` -- rate-limited progress/ETA lines for
  multi-minute runs, driven by the metrics counters;
* :mod:`repro.obs.manifest` -- :class:`RunManifest`, the provenance
  record (config, seed, dataset fingerprint, versions, metrics snapshot,
  span digest) written atomically next to outputs.

On top of those point-in-time primitives sits the **health
observatory** (see DESIGN "Health observatory"):

* :mod:`repro.obs.timeseries` -- :class:`SeriesSampler`, ring-buffered
  metric time-series on an injectable clock with JSONL persistence;
* :mod:`repro.obs.health`     -- :class:`HealthRule` SLO predicates and
  the :class:`HealthMonitor` OK/WARN/CRIT state machine with hysteresis;
* :mod:`repro.obs.profiler`   -- :class:`SamplingProfiler`, collapsed
  stacks and hotspot digests from periodic frame captures;
* :mod:`repro.obs.artifacts`  -- one reader for every persisted artifact
  and the digests ``darkcrowd stats`` and the dashboard both print;
* :mod:`repro.obs.dashboard`  -- the ``darkcrowd dashboard``
  self-contained HTML report over the persisted artifacts.

Everything is opt-in: until the CLI (or a host application) calls
``metrics.enable()`` / ``tracing.enable()`` / ``configure_logging()``,
the instrumentation points scattered through the pipeline cost one
attribute load and one empty call each -- the <5% overhead budget is
gated in ``benchmarks/perf_smoke.py`` even with everything enabled.
"""

from repro.obs import metrics, tracing
from repro.obs.health import (
    HealthEvent,
    HealthMonitor,
    HealthRule,
    Observatory,
    default_streaming_rules,
    load_health_jsonl,
)
from repro.obs.logs import (
    JsonlFormatter,
    configure_logging,
    get_logger,
    log_event,
    reset_logging,
)
from repro.obs.manifest import RunManifest, fingerprint_dataset
from repro.obs.metrics import MetricsRegistry, NullRegistry, Stopwatch
from repro.obs.profiler import SamplingProfiler, load_profile
from repro.obs.progress import ProgressReporter
from repro.obs.timeseries import SeriesFrame, SeriesSampler, load_series_jsonl
from repro.obs.tracing import Span, Tracer, trace_span, traced

__all__ = [
    "metrics",
    "tracing",
    "MetricsRegistry",
    "NullRegistry",
    "Stopwatch",
    "Span",
    "Tracer",
    "trace_span",
    "traced",
    "JsonlFormatter",
    "configure_logging",
    "reset_logging",
    "get_logger",
    "log_event",
    "ProgressReporter",
    "RunManifest",
    "fingerprint_dataset",
    "SeriesSampler",
    "SeriesFrame",
    "load_series_jsonl",
    "HealthRule",
    "HealthMonitor",
    "HealthEvent",
    "Observatory",
    "default_streaming_rules",
    "load_health_jsonl",
    "SamplingProfiler",
    "load_profile",
]
