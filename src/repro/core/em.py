"""Expectation-Maximization for Gaussian mixtures on placement data.

Sec. IV-B of the paper: multi-country crowds yield placement distributions
that are mixtures of Gaussians, one per constituent region.  Since the
number of regions is unknown a priori, the paper fits a Gaussian Mixture
Model with EM (initialised with the empirically observed sigma ~ 2.5) and
reads the component means as the uncovered time zones.

Our implementation runs EM on the *binned* placement: data points are the
24 integer zone offsets weighted by the number of users placed there.
:func:`select_mixture` picks the component count with an information
criterion, discarding candidates with small-weight or unresolvably close
components -- the paper selects the count by inspection; a criterion
makes the choice reproducible.  Its default is BIC, which the streaming
engine uses; :class:`~repro.core.geolocate.CrowdGeolocator` selects with
AIC (its ``criterion`` default), which splits overlapping crowds more
readily.

Each component count gets five deterministic starts, and every start of
every requested count runs as one row of a single lockstep batch
(:func:`_fit_lockstep`), so :func:`fit_mixture` is one kernel call over
its five starts and :func:`select_mixture` one call over all twenty.

A run stops at its first converged iteration, or is cut off at iteration
``_MAX_STALL`` (15) and counted as a stall cutoff, so the effective
iteration cap is ``min(max_iter, 15)`` and ``_MAX_ITER`` (500) is never
reached.  Verdicts depend on this cap; ``tests/em_oracle.py`` keeps the
per-run reference loop it comes from, whose stall detector never resets.
Letting slow runs go on while they still improve changes verdicts, so
that is left to a change gated on measured accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.gaussian import (
    PAPER_SIGMA,
    GaussianComponent,
    evaluate_on_zones,
)
from repro.core.placement import PlacementDistribution
from repro.errors import FitError
from repro.obs import metrics as obs_metrics
from repro.timebase.zones import ZONE_OFFSETS

if TYPE_CHECKING:
    from collections.abc import Sequence

    from repro.core.types import BoolArray, FloatArray, IntArray

_MIN_SIGMA = 0.35
_MAX_ITER = 500
_TOL = 1e-10
#: The iteration at which a still-unconverged run is cut off and counted
#: as a stall.  Dead-component re-seeding can make the likelihood cycle
#: instead of converging; without this cutoff such runs always burn all
#: of ``max_iter``, dominating every mixture fit.
_MAX_STALL = 15


@dataclass(frozen=True)
class GaussianMixtureModel:
    """A fitted mixture: components (weights sum to 1) + fit diagnostics."""

    components: tuple[GaussianComponent, ...]
    log_likelihood: float
    bic: float
    n_effective: float
    converged: bool

    @property
    def k(self) -> int:
        return len(self.components)

    def zone_offsets(self) -> list[int]:
        """Integer zones nearest to each component mean, largest weight first."""
        ranked = sorted(self.components, key=lambda c: -c.weight)
        return [component.nearest_zone() for component in ranked]

    def dominant(self) -> GaussianComponent:
        return max(self.components, key=lambda component: component.weight)

    def density_on_zones(self) -> FloatArray:
        """The mixture evaluated at the 24 zone offsets (bin width 1)."""
        return evaluate_on_zones(self.components)


def _weighted_data(
    placement: PlacementDistribution,
) -> tuple[FloatArray, FloatArray, float]:
    x = np.asarray(ZONE_OFFSETS, dtype=float)
    weights = placement.as_array() * placement.n_users
    total = float(weights.sum())
    if total <= 0:
        raise FitError("placement carries no users")
    return x, weights, total


def _peak_means(placement: PlacementDistribution, k: int) -> list[float]:
    """k starting means at well-separated placement peaks."""
    fractions = placement.as_array()
    order = np.argsort(fractions)[::-1]
    chosen: list[float] = []
    for index in order:
        candidate = float(ZONE_OFFSETS[index])
        if all(abs(candidate - mean) >= 3.0 for mean in chosen):
            chosen.append(candidate)
        if len(chosen) == k:
            return chosen
    # Not enough separated peaks: fall back to spreading over the support.
    support = [float(ZONE_OFFSETS[i]) for i in np.nonzero(fractions)[0]]
    low, high = min(support), max(support)
    while len(chosen) < k:
        chosen.append(low + (high - low) * (len(chosen) + 0.5) / k)
    return chosen


def _quantile_means(placement: PlacementDistribution, k: int) -> list[float]:
    """k starting means at the weighted quantiles of the placement."""
    fractions = placement.as_array()
    cdf = np.cumsum(fractions) / fractions.sum()
    x = np.asarray(ZONE_OFFSETS, dtype=float)
    targets = (np.arange(k) + 0.5) / k
    return [float(x[int(np.searchsorted(cdf, target))]) for target in targets]


def _initial_mean_sets(placement: PlacementDistribution, k: int) -> list[list[float]]:
    """Several EM starting points: peaks, quantiles, and jittered peaks.

    EM on overlapping mixtures is sensitive to initialisation; a handful
    of deterministic restarts makes the per-k likelihood reliable enough
    for the model-selection step to compare ks fairly.
    """
    starts = [_peak_means(placement, k), _quantile_means(placement, k)]
    rng = np.random.default_rng(k)
    base = np.asarray(starts[0], dtype=float)
    for _ in range(3):
        starts.append((base + rng.normal(0.0, 1.5, size=k)).tolist())
    return starts


def fit_mixture(
    placement: PlacementDistribution,
    k: int,
    *,
    sigma_init: float = PAPER_SIGMA,
    max_iter: int = _MAX_ITER,
) -> GaussianMixtureModel:
    """Run EM with exactly *k* components on a placement distribution.

    Five deterministic starts run as one lockstep batch and the
    best-likelihood run is returned.  Each run stops at its first
    converged iteration or is cut off at iteration 15, so the effective
    iteration cap is ``min(max_iter, 15)``.
    """
    if k < 1:
        raise FitError(f"k must be >= 1, got {k}")
    (model,) = _fit_lockstep(placement, [k], sigma_init=sigma_init, max_iter=max_iter)
    return model


def _fit_lockstep(
    placement: PlacementDistribution,
    ks: Sequence[int],
    *,
    sigma_init: float,
    max_iter: int,
) -> list[GaussianMixtureModel]:
    """The best-likelihood EM fit for each k in *ks*, every start in one batch.

    EM dominates the warm streaming-snapshot path.  On the perfbench
    ``monitor_drift`` workload (seed 1, under cProfile) ``select_mixture``
    took 84% of ``snapshot()`` time with one EM run per start, and 49%
    with this kernel.  Its arrays are at most 4 x 24, so the cost is
    numpy call overhead, which the kernel pays once per iteration for all
    runs instead of once per run.

    Every start of every k is a row of one ``(runs, K, 24)`` batch with
    K = max(ks); a row with k < K is padded with zero-weight components,
    which add exact zeros to every sum over the component axis and are
    never re-seeded.  Each row keeps its own stop rule and is frozen
    (its parameters no longer updated) once it stops, so every field of
    every fit, and every ``repro_core_em_*`` counter, equals that of a
    lone run bit for bit.  Two products keep that true: new means are
    taken per k on the unpadded ``(runs_k, k, 24)`` slice, because a
    padded ``(K, 24) @ x`` rounds differently from ``(k, 24) @ x``; and
    the log-likelihood is ``(1, 24) @ (24,)`` per row, which rounds as
    ``np.dot`` does.  ``tests/em_oracle.py`` keeps the per-run loop.
    """
    x, weights, total = _weighted_data(placement)
    starts: list[tuple[int, list[float]]] = []
    groups: list[tuple[slice, int]] = []  # (rows, k): one k's rows are contiguous
    for k in ks:
        mean_sets = _initial_mean_sets(placement, k)
        groups.append((slice(len(starts), len(starts) + len(mean_sets)), k))
        starts.extend((k, means0) for means0 in mean_sets)
    n_runs, width = len(starts), max(ks)
    k_of = np.array([k for k, _ in starts])
    real: BoolArray = np.arange(width) < k_of[:, None]
    means = np.zeros((n_runs, width))
    sigmas = np.ones((n_runs, width))
    mix = np.zeros((n_runs, width))
    for row, (k, means0) in enumerate(starts):
        means[row, :k] = means0
        sigmas[row, :k] = sigma_init
        mix[row, :k] = 1.0 / k
    inv_sqrt_2pi = 1.0 / np.sqrt(2.0 * np.pi)

    weighted_x = np.zeros((n_runs, width))  # padding columns stay zero
    log_likelihood: FloatArray = np.full(n_runs, -np.inf)
    previous = log_likelihood
    n_iterations: IntArray = np.zeros(n_runs, dtype=np.int64)
    n_reseeds: IntArray = np.zeros(n_runs, dtype=np.int64)
    converged: BoolArray = np.zeros(n_runs, dtype=bool)
    running = ~converged
    for iteration in range(1, min(max_iter, _MAX_STALL) + 1):
        # E-step over every row; a frozen row recomputes its last values.
        z = (x - means[:, :, None]) / sigmas[:, :, None]
        densities = (
            (mix * inv_sqrt_2pi / sigmas)[:, :, None] * np.exp(-0.5 * z * z)
        )
        mixture = np.maximum(densities.sum(axis=1), 1e-300)
        responsibilities = densities / mixture[:, None, :]

        current = (np.log(mixture)[:, None, :] @ weights)[:, 0]
        log_likelihood = np.where(running, current, log_likelihood)
        n_iterations += running
        converged |= running & (
            np.abs(current - previous) < _TOL * (1.0 + np.abs(previous))
        )
        running &= ~converged
        if iteration == _MAX_STALL or not running.any():
            break
        previous = current

        # M-step with the bin weights folded in; frozen rows keep theirs.
        r_w = responsibilities * weights
        mass = r_w.sum(axis=2)
        alive = mass > 1e-12
        safe_mass = np.where(alive, mass, 1.0)
        for rows, k in groups:
            weighted_x[rows, :k] = r_w[rows, :k] @ x
        new_means = weighted_x / safe_mass
        variance = (r_w * (x - new_means[:, :, None]) ** 2).sum(axis=2) / safe_mass
        update = alive & running[:, None]
        means = np.where(update, new_means, means)
        sigmas = np.where(
            update, np.maximum(np.sqrt(variance), _MIN_SIGMA), sigmas
        )
        mix = np.where(update, mass / total, mix)
        dead = real & ~alive & running[:, None]
        if dead.any():
            # Dead components: re-seed each at its run's worst-explained bin.
            n_reseeds += dead.sum(axis=1)
            worst = x[np.argmax(weights / mixture, axis=1)]
            means = np.where(dead, worst[:, None], means)
            sigmas = np.where(dead, sigma_init, sigmas)
            mix = np.where(dead, 1.0 / k_of[:, None], mix)
        mix = np.where(
            running[:, None], mix / mix.sum(axis=1, keepdims=True), mix
        )
    # A run still unconverged at iteration _MAX_STALL is a stall cutoff.
    stalled = running & (n_iterations == _MAX_STALL)

    # Accounting once per batch, never inside the hot loop: re-seed
    # cycles and stall cutoffs are exactly the pathologies the
    # _MAX_STALL cutoff exists for, so they are first-class metrics.
    obs_metrics.counter("repro_core_em_runs_total", "EM runs started").inc(n_runs)
    obs_metrics.counter(
        "repro_core_em_iterations_total", "EM iterations across all runs"
    ).inc(int(n_iterations.sum()))
    if n_reseeds.any():
        obs_metrics.counter(
            "repro_core_em_reseeds_total", "dead components re-seeded"
        ).inc(int(n_reseeds.sum()))
    if stalled.any():
        obs_metrics.counter(
            "repro_core_em_stall_cutoffs_total",
            "EM runs cut off by the stall detector",
        ).inc(int(stalled.sum()))

    models: list[GaussianMixtureModel] = []
    for rows, k in groups:
        # The first best start wins, as a strict ">" scan would keep it.
        row = rows.start + int(np.argmax(log_likelihood[rows]))
        components = tuple(
            GaussianComponent(mean=float(m), sigma=float(s), weight=float(w))
            for m, s, w in sorted(
                zip(means[row, :k], sigmas[row, :k], mix[row, :k]),
                key=lambda t: -t[2],
            )
        )
        # BIC with the effective sample size = number of placed users.
        fit_log_likelihood = float(log_likelihood[row])
        bic = -2.0 * fit_log_likelihood + (3 * k - 1) * np.log(total)
        models.append(
            GaussianMixtureModel(
                components=components,
                log_likelihood=fit_log_likelihood,
                bic=float(bic),
                n_effective=total,
                converged=bool(converged[row]),
            )
        )
    return models


def select_mixture(
    placement: PlacementDistribution,
    *,
    max_components: int = 4,
    sigma_init: float = PAPER_SIGMA,
    min_weight: float = 0.05,
    criterion: str = "bic",
) -> GaussianMixtureModel:
    """Fit k = 1..max_components and pick the criterion-best model.

    *criterion* is ``"bic"`` (default; parsimonious) or ``"aic"`` (more
    willing to split overlapping crowds).  Components whose mixing weight
    falls below *min_weight* are treated as noise: a candidate model
    containing one is discarded in favour of the smaller k (this mirrors
    the paper reporting only "main" components).  When every candidate is
    discarded the k = 1 fit is returned.  All fits are one lockstep batch.
    """
    if criterion not in ("bic", "aic"):
        raise FitError(f"unknown criterion {criterion!r} (use 'bic' or 'aic')")

    def score(model: GaussianMixtureModel) -> float:
        if criterion == "bic":
            return model.bic
        n_params = 3 * model.k - 1
        return -2.0 * model.log_likelihood + 2.0 * n_params

    # k = 1 is always fitted: it is the fallback.
    fits = _fit_lockstep(
        placement,
        range(1, max(max_components, 1) + 1),
        sigma_init=sigma_init,
        max_iter=_MAX_ITER,
    )
    best: GaussianMixtureModel | None = None
    for model in fits[: max(max_components, 0)]:
        if any(component.weight < min_weight for component in model.components):
            continue
        if _has_duplicate_means(model):
            continue
        if best is None or score(model) < score(best):
            best = model
    return fits[0] if best is None else best


def _has_duplicate_means(model: GaussianMixtureModel, min_gap: float = 3.0) -> bool:
    """True when two components sit closer than the method can resolve.

    Single-country placements spread with sigma ~ 2.5 zones (Sec. IV-A),
    so two humps closer than about three zones are one crowd, not two;
    a candidate mixture splitting them is rejected during selection.
    """
    means = sorted(component.mean for component in model.components)
    return any(b - a < min_gap for a, b in zip(means, means[1:]))
