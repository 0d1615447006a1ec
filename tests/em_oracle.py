"""Sequential oracle for the lockstep EM kernel.

``repro.core.em`` fits every start of every component count as one row
of a single ``(runs, K, 24)`` batch.  The oracle here is the loop it
replaced, kept verbatim: one ``_run_em`` per start, ``fit_mixture``
keeping the best-likelihood start, and ``select_mixture`` calling
``fit_mixture`` once per k (and once more for its k = 1 fallback).  The
tests compare the production fits with it field by field, counters
included.

The stall detector below never resets: ``best_seen`` starts at ``-inf``,
so its threshold ``-inf + _TOL * inf`` is NaN, every unconverged
iteration counts as a stall, and a run stops at its first converged
iteration or is cut at iteration ``_MAX_STALL``.  The kernel states that
rule directly; the oracle keeps the original form.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.em import (
    _MAX_ITER,
    _MAX_STALL,
    _MIN_SIGMA,
    _TOL,
    GaussianMixtureModel,
    _has_duplicate_means,
    _initial_mean_sets,
    _weighted_data,
)
from repro.core.gaussian import PAPER_SIGMA, GaussianComponent
from repro.core.placement import PlacementDistribution
from repro.errors import FitError
from repro.obs import metrics as obs_metrics

if TYPE_CHECKING:
    from repro.core.types import FloatArray


def fit_mixture(
    placement: PlacementDistribution,
    k: int,
    *,
    sigma_init: float = PAPER_SIGMA,
    max_iter: int = _MAX_ITER,
) -> GaussianMixtureModel:
    """Run EM with exactly *k* components on a placement distribution.

    Multiple deterministic restarts are used and the best-likelihood run
    is returned.
    """
    if k < 1:
        raise FitError(f"k must be >= 1, got {k}")
    x, weights, total = _weighted_data(placement)
    best: GaussianMixtureModel | None = None
    for means0 in _initial_mean_sets(placement, k):
        model = _run_em(
            placement, x, weights, total, means0, k,
            sigma_init=sigma_init, max_iter=max_iter,
        )
        if best is None or model.log_likelihood > best.log_likelihood:
            best = model
    assert best is not None
    return best


def _run_em(
    placement: PlacementDistribution,
    x: FloatArray,
    weights: FloatArray,
    total: float,
    means0: list[float],
    k: int,
    *,
    sigma_init: float,
    max_iter: int,
) -> GaussianMixtureModel:
    """One EM run from a given set of initial means."""
    means = np.asarray(means0, dtype=float)
    sigmas = np.full(k, float(sigma_init))
    mix = np.full(k, 1.0 / k)
    inv_sqrt_2pi = 1.0 / np.sqrt(2.0 * np.pi)

    previous = -np.inf
    best_seen = -np.inf
    stall = 0
    converged = False
    stalled_out = False
    n_iterations = 0
    n_reseeds = 0
    log_likelihood = previous
    for n_iterations in range(1, max_iter + 1):
        # E-step, broadcast over all components at once: (k, bins)
        # densities, no per-component python loop.
        z = (x[None, :] - means[:, None]) / sigmas[:, None]
        densities = (
            (mix * inv_sqrt_2pi / sigmas)[:, None] * np.exp(-0.5 * z * z)
        )
        mixture = densities.sum(axis=0)
        mixture = np.clip(mixture, 1e-300, None)
        responsibilities = densities / mixture

        log_likelihood = float(np.dot(weights, np.log(mixture)))
        if abs(log_likelihood - previous) < _TOL * (1.0 + abs(previous)):
            converged = True
            break
        if log_likelihood > best_seen + _TOL * (1.0 + abs(best_seen)):
            best_seen = log_likelihood
            stall = 0
        else:
            # Monotone EM always improves; a likelihood that stops
            # improving without meeting the tolerance is cycling through
            # re-seeds and will never converge -- cut it off.
            stall += 1
            if stall >= _MAX_STALL:
                stalled_out = True
                break
        previous = log_likelihood

        # M-step with the bin weights folded in, again batched over k.
        r_w = responsibilities * weights[None, :]
        mass = r_w.sum(axis=1)
        alive = mass > 1e-12
        safe_mass = np.where(alive, mass, 1.0)
        new_means = r_w @ x / safe_mass
        variance = (
            np.sum(r_w * (x[None, :] - new_means[:, None]) ** 2, axis=1)
            / safe_mass
        )
        means = np.where(alive, new_means, means)
        sigmas = np.where(
            alive, np.maximum(np.sqrt(variance), _MIN_SIGMA), sigmas
        )
        mix = np.where(alive, mass / total, mix)
        if not alive.all():
            # Dead components: re-seed each at the worst-explained bin.
            n_reseeds += int((~alive).sum())
            worst = float(x[int(np.argmax(weights / mixture))])
            means[~alive] = worst
            sigmas[~alive] = float(sigma_init)
            mix[~alive] = 1.0 / k
        mix = mix / mix.sum()

    # Per-run accounting (once per EM run, never inside the hot loop):
    # re-seed cycles and stall cutoffs are exactly the pathologies the
    # _MAX_STALL machinery exists for, so they are first-class metrics.
    obs_metrics.counter("repro_core_em_runs_total", "EM runs started").inc()
    obs_metrics.counter(
        "repro_core_em_iterations_total", "EM iterations across all runs"
    ).inc(n_iterations)
    if n_reseeds:
        obs_metrics.counter(
            "repro_core_em_reseeds_total", "dead components re-seeded"
        ).inc(n_reseeds)
    if stalled_out:
        obs_metrics.counter(
            "repro_core_em_stall_cutoffs_total",
            "EM runs cut off by the stall detector",
        ).inc()

    components = tuple(
        GaussianComponent(mean=float(m), sigma=float(s), weight=float(w))
        for m, s, w in sorted(zip(means, sigmas, mix), key=lambda t: -t[2])
    )
    # BIC with the effective sample size = number of placed users.
    n_params = 3 * k - 1
    bic = -2.0 * log_likelihood + n_params * np.log(total)
    return GaussianMixtureModel(
        components=components,
        log_likelihood=log_likelihood,
        bic=float(bic),
        n_effective=total,
        converged=converged,
    )


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
    the paper reporting only "main" components).
    """
    if criterion not in ("bic", "aic"):
        raise FitError(f"unknown criterion {criterion!r} (use 'bic' or 'aic')")

    def score(model: GaussianMixtureModel) -> float:
        if criterion == "bic":
            return model.bic
        n_params = 3 * model.k - 1
        return -2.0 * model.log_likelihood + 2.0 * n_params

    best: GaussianMixtureModel | None = None
    for k in range(1, max_components + 1):
        model = fit_mixture(placement, k, sigma_init=sigma_init)
        if any(component.weight < min_weight for component in model.components):
            continue
        if _has_duplicate_means(model):
            continue
        if best is None or score(model) < score(best):
            best = model
    if best is None:
        best = fit_mixture(placement, 1, sigma_init=sigma_init)
    return best
