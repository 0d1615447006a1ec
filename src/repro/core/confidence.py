"""Bootstrap confidence intervals for crowd-geolocation estimates.

The paper reports point estimates (component means/weights).  For a
production tool an investigator needs to know how much those estimates
move under resampling of the crowd -- 52 IDC users support a much wider
interval than 638 Majestic Garden users.  This module bootstraps over
*users*: the per-user zone assignments are resampled with replacement,
the placement histogram rebuilt and the mixture refit with the selected
component count, and each bootstrap component is matched to the original
one with the nearest mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.em import GaussianMixtureModel, fit_mixture
from repro.core.gaussian import PAPER_SIGMA
from repro.core.placement import placement_distribution
from repro.errors import FitError


@dataclass(frozen=True)
class ComponentInterval:
    """Bootstrap interval for one mixture component."""

    mean_estimate: float
    mean_low: float
    mean_high: float
    weight_estimate: float
    weight_low: float
    weight_high: float

    def mean_width(self) -> float:
        return self.mean_high - self.mean_low


@dataclass(frozen=True)
class BootstrapResult:
    """Intervals for every component plus diagnostic counters."""

    intervals: tuple[ComponentInterval, ...]
    n_resamples: int
    n_users: int
    k_stability: float  # fraction of resamples whose refit k matched

    def widest_mean_interval(self) -> float:
        return max(interval.mean_width() for interval in self.intervals)


def bootstrap_mixture(
    assignments: "dict[str, int] | list[int]",
    mixture: GaussianMixtureModel,
    *,
    n_resamples: int = 200,
    confidence: float = 0.9,
    sigma_init: float = PAPER_SIGMA,
    seed: int = 0,
) -> BootstrapResult:
    """Bootstrap CIs for the component means and weights.

    *assignments* are the per-user zone offsets produced by the placement
    step (:attr:`GeolocationReport.user_zones`); *mixture* is the model
    fitted on the full crowd.
    """
    offsets = list(assignments.values()) if isinstance(assignments, dict) else list(
        assignments
    )
    if not offsets:
        raise FitError("cannot bootstrap an empty crowd")
    if not 0.0 < confidence < 1.0:
        raise FitError(f"confidence outside (0, 1): {confidence}")
    rng = np.random.default_rng(seed)
    k = mixture.k
    original_means = np.asarray([c.mean for c in mixture.components])

    means_samples: list[list[float]] = [[] for _ in range(k)]
    weights_samples: list[list[float]] = [[] for _ in range(k)]
    matched_k = 0
    offsets_array = np.asarray(offsets)
    for _ in range(n_resamples):
        resampled = offsets_array[
            rng.integers(0, len(offsets), size=len(offsets))
        ]
        placement = placement_distribution(resampled.tolist())
        try:
            refit = fit_mixture(placement, k, sigma_init=sigma_init)
        except FitError:
            continue
        refit_means = np.asarray([c.mean for c in refit.components])
        refit_weights = np.asarray([c.weight for c in refit.components])
        # Greedy nearest-mean matching of refit components to originals.
        available = list(range(k))
        matched_all = True
        for index, target in enumerate(original_means):
            if not available:
                matched_all = False
                break
            best = min(available, key=lambda j: abs(refit_means[j] - target))
            if abs(refit_means[best] - target) > 4.0:
                matched_all = False
            means_samples[index].append(float(refit_means[best]))
            weights_samples[index].append(float(refit_weights[best]))
            available.remove(best)
        if matched_all:
            matched_k += 1

    low_q = (1.0 - confidence) / 2.0
    high_q = 1.0 - low_q
    intervals: list[ComponentInterval] = []
    for index, component in enumerate(mixture.components):
        mean_draws = np.asarray(means_samples[index])
        weight_draws = np.asarray(weights_samples[index])
        if mean_draws.size == 0:
            raise FitError("bootstrap produced no usable resamples")
        intervals.append(
            ComponentInterval(
                mean_estimate=component.mean,
                mean_low=float(np.quantile(mean_draws, low_q)),
                mean_high=float(np.quantile(mean_draws, high_q)),
                weight_estimate=component.weight,
                weight_low=float(np.quantile(weight_draws, low_q)),
                weight_high=float(np.quantile(weight_draws, high_q)),
            )
        )
    return BootstrapResult(
        intervals=tuple(intervals),
        n_resamples=n_resamples,
        n_users=len(offsets),
        k_stability=matched_k / max(n_resamples, 1),
    )
