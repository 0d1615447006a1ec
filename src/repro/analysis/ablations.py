"""Ablations of the design choices DESIGN.md calls out.

The paper fixes four knobs with little justification beyond "it works":
the linear EMD, the 30-post activity threshold, the EM sigma
initialisation of 2.5 and (implicitly) the trace length.  Each ablation
sweeps one knob and measures placement/decomposition quality on labeled
synthetic crowds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.experiments import ExperimentContext, make_context
from repro.core.em import fit_mixture
from repro.core.placement import assign_zones
from repro.core.shard import compute_shard_partial
from repro.datasets.traces import LabeledDataset
from repro.synth.twitter import build_region_crowd
from repro.timebase.zones import get_region

_DEFAULT_REGIONS = ("germany", "malaysia", "illinois", "brazil")


def _placement_accuracy(
    context: ExperimentContext,
    region_key: str,
    *,
    metric: str,
    n_users: int,
    min_posts: int,
    n_days: int | None = None,
    seed: int = 29,
    tolerance: int = 1,
    posts_per_day_mean: float = 1.2,
) -> tuple[float, int]:
    """Fraction of users placed within ±tolerance of the true zone."""
    days = n_days if n_days is not None else context.n_days
    crowd = build_region_crowd(
        region_key,
        n_users,
        seed=seed,
        n_days=days,
        posts_per_day_mean=posts_per_day_mean,
    )
    normalized = LabeledDataset({region_key: crowd}).dst_normalized_crowd(region_key)
    partial = compute_shard_partial(
        *normalized.columns(), context.references, metric=metric, min_posts=min_posts
    )
    if not len(partial):
        return 0.0, 0
    assignments, _ = assign_zones(partial.user_ids, partial.zone_indices)
    truth = get_region(region_key).base_offset
    hits = sum(
        1 for offset in assignments.values() if abs(offset - truth) <= tolerance
    )
    return hits / len(assignments), len(assignments)


@dataclass(frozen=True)
class MetricAblationRow:
    metric: str
    accuracy: float
    n_users: int


def run_metric_ablation(
    context: ExperimentContext | None = None,
    *,
    regions: tuple[str, ...] = _DEFAULT_REGIONS,
    n_users: int = 80,
) -> list[MetricAblationRow]:
    """Linear EMD (the paper's choice) vs circular EMD vs L1 vs L2."""
    context = context or make_context()
    rows = []
    for metric in ("linear", "circular", "l1", "l2"):
        accuracies = []
        total = 0
        for region_key in regions:
            accuracy, count = _placement_accuracy(
                context, region_key, metric=metric, n_users=n_users, min_posts=30
            )
            accuracies.append(accuracy * count)
            total += count
        rows.append(
            MetricAblationRow(
                metric=metric,
                accuracy=sum(accuracies) / max(total, 1),
                n_users=total,
            )
        )
    return rows


@dataclass(frozen=True)
class ThresholdAblationRow:
    min_posts: int
    accuracy: float
    users_retained: int


def run_threshold_ablation(
    context: ExperimentContext | None = None,
    *,
    region_key: str = "germany",
    thresholds: tuple[int, ...] = (5, 10, 20, 30, 50, 80),
    n_users: int = 150,
) -> list[ThresholdAblationRow]:
    """The 30-post rule: accuracy and retention as the threshold moves.

    Run on a *sparse* crowd (mean 0.2 posts/day, ~40 posts/year for the
    median user) so the threshold actually separates informative traces
    from uninformative ones -- the regime the paper's rule is aimed at.
    """
    context = context or make_context()
    rows = []
    for threshold in thresholds:
        accuracy, count = _placement_accuracy(
            context,
            region_key,
            metric="linear",
            n_users=n_users,
            min_posts=threshold,
            posts_per_day_mean=0.2,
        )
        rows.append(
            ThresholdAblationRow(
                min_posts=threshold, accuracy=accuracy, users_retained=count
            )
        )
    return rows


@dataclass(frozen=True)
class SigmaInitRow:
    sigma_init: float
    recovered_components: int
    max_center_error: float


def run_sigma_init_ablation(
    context: ExperimentContext | None = None,
    *,
    sigma_inits: tuple[float, ...] = (0.5, 1.0, 2.5, 4.0, 6.0),
    users_per_component: int = 120,
    seed: int = 22,
) -> list[SigmaInitRow]:
    """EM sensitivity to the sigma initialisation (paper uses 2.5)."""
    from repro.synth.forums import build_merged_crowd

    context = context or make_context()
    regions = ("illinois", "germany", "malaysia")
    expected = np.asarray(
        [get_region(key).base_offset for key in regions], dtype=float
    )
    traces = build_merged_crowd(
        regions, users_per_component, seed=seed, n_days=context.n_days
    )
    partial = compute_shard_partial(*traces.columns(), context.references, min_posts=30)
    _, placement = assign_zones(partial.user_ids, partial.zone_indices)
    rows = []
    for sigma_init in sigma_inits:
        model = fit_mixture(placement, k=3, sigma_init=sigma_init)
        max_error = max(
            float(np.min(np.abs(expected - component.mean)))
            for component in model.components
        )
        rows.append(
            SigmaInitRow(
                sigma_init=sigma_init,
                recovered_components=model.k,
                max_center_error=max_error,
            )
        )
    return rows


@dataclass(frozen=True)
class TraceLengthRow:
    n_days: int
    accuracy: float
    users_retained: int


def run_trace_length_ablation(
    context: ExperimentContext | None = None,
    *,
    region_key: str = "malaysia",
    day_counts: tuple[int, ...] = (30, 60, 120, 240, 366),
    n_users: int = 120,
) -> list[TraceLengthRow]:
    """How much history the method needs (Sec. VII's monitoring question)."""
    context = context or make_context()
    rows = []
    for n_days in day_counts:
        accuracy, count = _placement_accuracy(
            context,
            region_key,
            metric="linear",
            n_users=n_users,
            min_posts=30,
            n_days=n_days,
        )
        rows.append(
            TraceLengthRow(n_days=n_days, accuracy=accuracy, users_retained=count)
        )
    return rows
