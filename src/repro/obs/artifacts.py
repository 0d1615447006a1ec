"""One reader for every observability artifact, and the digests its views share.

:func:`load_artifact` recognises what ``--metrics-out``, ``--trace-out``,
``--manifest-out``, ``--series-out``, ``--health-out`` and
``--profile-out`` write by its ``kind`` (a Chrome trace has none; its
``traceEvents`` list names it).  ``darkcrowd stats`` prints the content
as tables and ``darkcrowd dashboard`` as HTML, both through
:func:`trace_digest`, :func:`histogram_rows` and
:func:`repro.obs.health.health_digest`.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import ReproError

from .health import HEALTH_KIND, load_health_jsonl
from .manifest import MANIFEST_KIND, RunManifest
from .metrics import percentile_from_counts
from .profiler import PROFILE_KIND, load_profile
from .timeseries import SERIES_KIND, load_series_jsonl

__all__ = [
    "METRICS_KIND",
    "TRACE_KIND",
    "HistogramRow",
    "SpanTotal",
    "format_labels",
    "histogram_rows",
    "load_artifact",
    "trace_digest",
]

#: ``kind`` of a ``--metrics-out`` JSON document.
METRICS_KIND = "repro-metrics"

#: What :func:`load_artifact` calls a Chrome trace-viewer document.
TRACE_KIND = "chrome-trace"

#: Kinds with a reader of their own; the others are returned as parsed.
_READERS = {
    SERIES_KIND: load_series_jsonl,
    HEALTH_KIND: load_health_jsonl,
    PROFILE_KIND: load_profile,
}
_DOCUMENT_KINDS = frozenset({METRICS_KIND, MANIFEST_KIND, TRACE_KIND})


def load_artifact(path: str | Path) -> tuple[str, Any]:
    """``(kind, content)`` of any artifact; ``OSError`` / ``ValueError`` if none.

    *content* is what the kind's own loader returns (a ``SeriesFrame``,
    ``(header, events)``, a profile) or else the parsed JSON document.  A
    manifest is returned only once :meth:`RunManifest.from_dict` accepts
    it, so one edited after it was written is refused.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        document, whole = json.loads(text), True
    except ValueError:  # JSONL artifacts carry their kind on the header line
        try:
            document, whole = json.loads(text.split("\n", 1)[0]), False
        except ValueError:
            raise ValueError(f"{path}: not JSON or JSONL") from None
    kind = None
    if isinstance(document, dict):
        kind = document.get("kind", TRACE_KIND if "traceEvents" in document else None)
    if kind in _READERS:
        return kind, _READERS[kind](path)
    if whole and kind == MANIFEST_KIND:
        try:
            RunManifest.from_dict(document)
        except KeyError as exc:
            raise ValueError(f"{path}: run manifest has no {exc} field") from None
        except ReproError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if whole and kind in _DOCUMENT_KINDS:
        return kind, document
    raise ValueError(
        f"{path}: not a recognised observability artifact (expected --metrics-out / "
        "--manifest-out / --trace-out / --series-out / --health-out / --profile-out output)"
    )


@dataclass(frozen=True)
class SpanTotal:
    """The complete events of one span name, in the trace's microseconds."""

    name: str
    count: int
    total_us: float
    max_us: float


def trace_digest(document: Mapping[str, Any]) -> list[SpanTotal]:
    """Complete (``ph: "X"``) events per name, longest total first.

    Other phases -- metadata, instants, counters -- have no duration.
    """
    durations: dict[str, list[float]] = {}
    for event in document.get("traceEvents", []):
        if event.get("ph") == "X":
            name = str(event.get("name", "?"))
            durations.setdefault(name, []).append(float(event.get("dur", 0.0)))
    totals = [SpanTotal(name, len(d), sum(d), max(d)) for name, d in durations.items()]
    return sorted(totals, key=lambda total: -total.total_us)


def format_labels(labels: Mapping[str, Any]) -> str:
    """``k=v,...`` in key order, as every view prints metric labels."""
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items()))


@dataclass(frozen=True)
class HistogramRow:
    """One histogram; its p50, p95 and p99 are ``nan`` while it is empty."""

    name: str
    labels: str
    count: int
    sum: float
    quantiles: tuple[float, ...]


def histogram_rows(snapshot: Mapping[str, Any]) -> list[HistogramRow]:
    """A row for every histogram of a metrics snapshot, in snapshot order."""
    return [
        HistogramRow(
            entry["name"],
            format_labels(entry["labels"]),
            entry["count"],
            entry["sum"],
            tuple(
                percentile_from_counts(entry["buckets"], entry["counts"], q)
                for q in (0.5, 0.95, 0.99)
            ),
        )
        for entry in snapshot.get("histograms", [])
    ]
