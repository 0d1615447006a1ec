"""Quarantine of corrupt traces: partial results with an honest accounting.

A long collection campaign against a flaky forum produces some garbage --
users whose traces came back empty, or whose timestamps were mangled into
NaN/inf, or into values 2**40 hours or more from the epoch, on the way
through a broken scrape.  Hard-failing the whole
geolocation on one bad user loses the campaign; silently dropping the
user hides the damage.  The quarantine mode does neither: corrupt traces
are set aside, the healthy crowd is analysed, and a
:class:`DataQualityReport` names every quarantined user and why, so the
analyst always knows what fraction of the crowd the verdict rests on.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from repro.core.events import ActivityTrace, TraceSet
from repro.core.kernels import valid_stamps
from repro.core.types import FloatArray, IntArray
from repro.errors import CorruptTraceError
from repro.obs import metrics as obs_metrics
from repro.obs.logs import get_logger, log_event

_log = get_logger("reliability")

#: Quarantine reason strings (stable identifiers, used in reports and tests).
REASON_EMPTY = "empty-trace"
REASON_NON_FINITE = "non-finite-timestamps"
REASON_OUT_OF_RANGE = "out-of-range-timestamps"

#: Reasons that indicate actual data corruption (vs mere lack of evidence);
#: strict (non-quarantine) pipelines hard-fail on these.  Negative
#: timestamps are deliberately NOT corruption here: the simulation epoch
#: is arbitrary, so zones east of UTC legitimately produce posts at
#: (slightly) negative UTC seconds -- only the on-disk JSONL format
#: (:mod:`repro.datasets.traces`) pins timestamps to be nonnegative.
CORRUPT_REASONS = frozenset({REASON_NON_FINITE, REASON_OUT_OF_RANGE})


@dataclass(frozen=True)
class QuarantinedUser:
    """One user set aside, with the reason and the evidence volume lost."""

    user_id: str
    reason: str
    n_posts: int


@dataclass(frozen=True)
class DataQualityReport:
    """Per-campaign accounting of what was kept and what was set aside."""

    n_input_users: int
    n_retained_users: int
    quarantined: tuple[QuarantinedUser, ...] = ()

    @property
    def n_quarantined(self) -> int:
        return len(self.quarantined)

    def fraction_retained(self) -> float:
        if self.n_input_users == 0:
            return 1.0
        return self.n_retained_users / self.n_input_users

    def reasons(self) -> dict[str, int]:
        """Quarantine counts keyed by reason string."""
        counts: dict[str, int] = {}
        for entry in self.quarantined:
            counts[entry.reason] = counts.get(entry.reason, 0) + 1
        return counts

    def quarantined_users(self) -> list[str]:
        return [entry.user_id for entry in self.quarantined]

    def reason_for(self, user_id: str) -> str | None:
        for entry in self.quarantined:
            if entry.user_id == user_id:
                return entry.reason
        return None

    def is_clean(self) -> bool:
        return not self.quarantined

    def summary(self) -> str:
        if self.is_clean():
            return f"data quality: all {self.n_input_users} users clean"
        reasons = ", ".join(
            f"{reason}: {count}" for reason, count in sorted(self.reasons().items())
        )
        return (
            f"data quality: retained {self.n_retained_users}/{self.n_input_users} "
            f"users ({self.fraction_retained():.0%}); quarantined "
            f"{self.n_quarantined} ({reasons})"
        )


def trace_fault(trace: ActivityTrace) -> str | None:
    """The quarantine reason for *trace*, or None when it is healthy."""
    if trace.is_empty():
        return REASON_EMPTY
    if not np.all(np.isfinite(trace.timestamps)):
        return REASON_NON_FINITE
    if not valid_stamps(trace.timestamps).all():
        return REASON_OUT_OF_RANGE
    return None


def partition_trace_set(traces: TraceSet) -> tuple[TraceSet, DataQualityReport]:
    """Split a crowd into (healthy traces, quality report).

    Every input trace lands exactly once: either in the returned
    :class:`TraceSet` or as a :class:`QuarantinedUser` in the report.
    """
    healthy = TraceSet()
    quarantined: list[QuarantinedUser] = []
    n_input = 0
    for trace in traces:
        n_input += 1
        reason = trace_fault(trace)
        if reason is None:
            healthy.add(trace)
        else:
            quarantined.append(
                QuarantinedUser(trace.user_id, reason, len(trace))
            )
    report = DataQualityReport(
        n_input_users=n_input,
        n_retained_users=len(healthy),
        quarantined=tuple(quarantined),
    )
    obs_metrics.counter(
        "repro_reliability_retained_users_total",
        "healthy users surviving quarantine partitioning",
    ).inc(report.n_retained_users)
    for reason, count in report.reasons().items():
        obs_metrics.counter(
            "repro_reliability_quarantined_users_total",
            "users set aside by the quarantine",
            reason=reason,
        ).inc(count)
    if not report.is_clean():
        log_event(
            _log,
            logging.WARNING,
            "traces_quarantined",
            n_input=report.n_input_users,
            n_retained=report.n_retained_users,
            reasons=report.reasons(),
        )
    return healthy, report


def assert_traces_clean(
    traces: TraceSet,
) -> tuple[list[str], IntArray, FloatArray]:
    """Raise :class:`CorruptTraceError` when any trace is actually corrupt.

    Empty traces are *not* corruption -- they are merely evidence-free and
    the activity threshold drops them downstream, which was the pipeline's
    behaviour long before the quarantine mode existed.

    The check is one pass of :func:`~repro.core.kernels.valid_stamps`
    over the crowd's stamp column
    (:meth:`~repro.core.events.TraceSet.columns`); only a crowd that fails
    it is walked trace by trace, to name the offenders.  A clean crowd's
    column is returned, so the caller profiles the column it validated
    instead of building it again.
    """
    columns = traces.columns()
    if valid_stamps(columns[2]).all():
        return columns
    offenders: list[tuple[str, str]] = []
    for trace in traces:
        reason = trace_fault(trace)
        if reason in CORRUPT_REASONS:
            offenders.append((trace.user_id, reason))
    shown = ", ".join(f"{user} ({reason})" for user, reason in offenders[:5])
    suffix = "" if len(offenders) <= 5 else f" and {len(offenders) - 5} more"
    raise CorruptTraceError(
        f"{len(offenders)} corrupt trace(s): {shown}{suffix}; "
        "pass quarantine=True to set them aside and analyse the rest"
    )
