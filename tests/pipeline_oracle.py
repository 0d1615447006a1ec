"""Per-trace oracle for the in-memory ``geolocate()`` batch path.

``CrowdGeolocator.geolocate`` validates, thresholds and counts a crowd on
its stamp column (``TraceSet.columns``): one stamp-rule check, an activity
mask over the lengths, one Eq. 1 kernel pass, and ``n_users`` /
``n_posts`` as sums over the lengths.  The oracle here is the path it
replaced: a validation loop over the traces, then ``with_min_posts``,
``without_users`` and ``total_posts`` on rebuilt trace sets.  Its Eq. 1
counts come from the per-user ``_naive_counts`` of ``test_kernels.py``,
so the oracle checks the plumbing and the kernel together.  Only the
report assembly is shared with production; ``n_users`` and ``n_posts``
are the oracle's own, counted on the rebuilt trace sets.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.batch import ProfileMatrix
from repro.core.events import TraceSet
from repro.core.geolocate import CrowdGeolocator, GeolocationReport
from repro.core.hemisphere import classify_most_active
from repro.core.placement import classify_profiles
from repro.core.shard import ShardPartial
from repro.errors import CorruptTraceError
from repro.obs import metrics as obs_metrics
from repro.reliability.quality import CORRUPT_REASONS, trace_fault
from test_kernels import _naive_counts


def assert_traces_clean_oracle(traces: TraceSet) -> None:
    """The trace-by-trace validation loop, with its error text."""
    offenders: list[tuple[str, str]] = []
    for trace in traces:
        reason = trace_fault(trace)
        if reason in CORRUPT_REASONS:
            offenders.append((trace.user_id, reason))
    if offenders:
        shown = ", ".join(f"{user} ({reason})" for user, reason in offenders[:5])
        suffix = "" if len(offenders) <= 5 else f" and {len(offenders) - 5} more"
        raise CorruptTraceError(
            f"{len(offenders)} corrupt trace(s): {shown}{suffix}; "
            "pass quarantine=True to set them aside and analyse the rest"
        )


def geolocate_oracle(
    locator: CrowdGeolocator,
    traces: TraceSet,
    *,
    crowd_name: str = "crowd",
    hemisphere_top_n: int = 0,
) -> GeolocationReport:
    """Validate -> ``with_min_posts`` -> naive Eq. 1 -> polish -> report."""
    watch = obs_metrics.Stopwatch()
    assert_traces_clean_oracle(traces)
    active = traces.with_min_posts(locator.min_posts)
    posted = [trace for trace in active if not trace.is_empty()]
    counts = _naive_counts([trace.timestamps for trace in posted], 0.0)
    matrix = ProfileMatrix([trace.user_id for trace in posted], counts)
    flat, nearest = classify_profiles(
        matrix, locator.references, metric=locator.metric
    )
    keep = ~flat
    removed_ids = [
        user_id for user_id, kept in zip(matrix.user_ids, keep) if not kept
    ]
    crowd = active.without_users(removed_ids) if removed_ids else active
    hemisphere = (
        tuple(classify_most_active(crowd, hemisphere_top_n, metric=locator.metric))
        if hemisphere_top_n > 0
        else ()
    )
    partial = ShardPartial(
        user_ids=matrix.user_ids,
        profiles=matrix.matrix,
        totals=counts.sum(axis=1),
        lengths=np.array([len(trace) for trace in posted], dtype=np.int64),
        flat_mask=flat,
        zone_indices=nearest,
        n_admitted=len(active),
    )
    report = locator._assemble(
        crowd_name, partial, pipeline="oracle", watch=watch, hemisphere=hemisphere
    )
    return dataclasses.replace(
        report, n_users=len(crowd), n_posts=crowd.total_posts()
    )
