"""EM mixture fitting and model selection."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import em_oracle
from repro.core.em import (
    fit_mixture,
    select_mixture,
)
from repro.core.gaussian import GaussianComponent, mixture_pdf
from repro.core.placement import PlacementDistribution
from repro.errors import FitError
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.timebase.zones import ZONE_OFFSETS

_EM_COUNTERS = (
    "repro_core_em_runs_total",
    "repro_core_em_iterations_total",
    "repro_core_em_reseeds_total",
    "repro_core_em_stall_cutoffs_total",
)


def _placement(components, n_users=500):
    offsets = np.asarray(ZONE_OFFSETS, dtype=float)
    density = np.asarray(mixture_pdf(components, offsets))
    fractions = density / density.sum()
    return PlacementDistribution(tuple(fractions.tolist()), n_users=n_users)


def _components(*specs):
    return [GaussianComponent(mean=m, sigma=s, weight=w) for m, s, w in specs]


class TestFitMixture:
    def test_single_component_recovery(self):
        placement = _placement(_components((2.0, 2.0, 1.0)))
        model = fit_mixture(placement, 1)
        assert model.k == 1
        assert model.components[0].mean == pytest.approx(2.0, abs=0.2)
        assert model.components[0].sigma == pytest.approx(2.0, abs=0.3)

    def test_two_component_recovery(self):
        placement = _placement(
            _components((-6.0, 1.6, 0.4), (1.0, 1.6, 0.6))
        )
        model = fit_mixture(placement, 2)
        means = sorted(component.mean for component in model.components)
        assert means[0] == pytest.approx(-6.0, abs=0.4)
        assert means[1] == pytest.approx(1.0, abs=0.4)
        weights = sorted(component.weight for component in model.components)
        assert weights == pytest.approx([0.4, 0.6], abs=0.05)

    def test_three_component_recovery(self):
        placement = _placement(
            _components((-7.0, 1.5, 0.33), (0.0, 1.5, 0.34), (8.0, 1.5, 0.33))
        )
        model = fit_mixture(placement, 3)
        means = sorted(component.mean for component in model.components)
        assert means == pytest.approx([-7.0, 0.0, 8.0], abs=0.5)

    def test_invalid_k(self):
        placement = _placement(_components((0.0, 2.0, 1.0)))
        with pytest.raises(FitError):
            fit_mixture(placement, 0)

    def test_components_sorted_by_weight(self):
        placement = _placement(
            _components((-6.0, 1.5, 0.25), (2.0, 1.5, 0.75))
        )
        model = fit_mixture(placement, 2)
        assert model.components[0].weight >= model.components[1].weight

    def test_likelihood_not_worse_with_more_components(self):
        placement = _placement(
            _components((-6.0, 1.5, 0.5), (4.0, 1.5, 0.5))
        )
        single = fit_mixture(placement, 1)
        double = fit_mixture(placement, 2)
        assert double.log_likelihood >= single.log_likelihood - 1e-6

    def test_mixing_weights_sum_to_one(self):
        placement = _placement(
            _components((-4.0, 2.0, 0.5), (5.0, 2.0, 0.5))
        )
        model = fit_mixture(placement, 2)
        assert sum(c.weight for c in model.components) == pytest.approx(1.0)


class TestSelectMixture:
    def test_selects_one_for_single_crowd(self):
        placement = _placement(_components((3.0, 2.0, 1.0)))
        model = select_mixture(placement)
        assert model.k == 1

    def test_selects_two_for_distant_pair(self):
        placement = _placement(
            _components((-6.0, 1.6, 0.5), (2.0, 1.6, 0.5))
        )
        model = select_mixture(placement)
        assert model.k == 2

    def test_selects_three_for_distant_triple(self):
        placement = _placement(
            _components((-7.0, 1.4, 0.33), (0.0, 1.4, 0.34), (8.0, 1.4, 0.33))
        )
        model = select_mixture(placement)
        assert model.k == 3

    def test_close_crowds_merge(self):
        # Two crowds 1.5 zones apart are below the method's resolution.
        placement = _placement(
            _components((0.0, 2.0, 0.5), (1.5, 2.0, 0.5))
        )
        model = select_mixture(placement)
        assert model.k == 1

    def test_unknown_criterion(self):
        placement = _placement(_components((0.0, 2.0, 1.0)))
        with pytest.raises(FitError):
            select_mixture(placement, criterion="hqc")

    def test_bic_more_conservative_than_aic(self):
        placement = _placement(
            _components((-5.0, 2.2, 0.6), (0.5, 2.2, 0.4)), n_users=120
        )
        bic_model = select_mixture(placement, criterion="bic")
        aic_model = select_mixture(placement, criterion="aic")
        assert bic_model.k <= aic_model.k

    def test_zone_offsets_ranked_by_weight(self):
        placement = _placement(
            _components((-6.0, 1.5, 0.3), (2.0, 1.5, 0.7))
        )
        model = select_mixture(placement)
        assert model.zone_offsets() == [2, -6]

    def test_dominant(self):
        placement = _placement(
            _components((-6.0, 1.5, 0.3), (2.0, 1.5, 0.7))
        )
        model = select_mixture(placement)
        assert model.dominant().nearest_zone() == 2


class TestModelProperties:
    def test_bic_formula(self):
        placement = _placement(_components((0.0, 2.0, 1.0)))
        model = fit_mixture(placement, 2)
        expected = -2.0 * model.log_likelihood + (3 * 2 - 1) * np.log(
            model.n_effective
        )
        assert model.bic == pytest.approx(expected)

    def test_density_on_zones_shape(self):
        placement = _placement(_components((0.0, 2.0, 1.0)))
        model = fit_mixture(placement, 1)
        assert model.density_on_zones().shape == (24,)

    def test_n_effective_equals_users(self):
        placement = _placement(_components((0.0, 2.0, 1.0)), n_users=321)
        model = fit_mixture(placement, 1)
        assert model.n_effective == pytest.approx(321.0)


def _fit_and_count(fit, *args, **kwargs):
    """The model *fit* returns and the EM counters it moved."""
    registry = MetricsRegistry()
    with use_registry(registry):
        model = fit(*args, **kwargs)
    return model, {name: registry.counter(name).value for name in _EM_COUNTERS}


@st.composite
def _placements(draw):
    """Placements of the shapes EM meets, as whole users per zone.

    Sparse histograms; single and double spikes, which kill components
    and force re-seeds; and crowds of 200-600 users (the paper's forum
    sizes) drawn from a near-uniform profile or from 1-3 Gaussian humps,
    each wrapped around the +-12 h seam.
    """
    kind = draw(st.sampled_from(["sparse", "spikes", "uniform", "humps"]))
    counts = np.zeros(len(ZONE_OFFSETS))
    if kind == "sparse":
        bins = draw(
            st.dictionaries(
                st.integers(0, 23), st.integers(1, 80), min_size=1, max_size=6
            )
        )
        for index, n_users in bins.items():
            counts[index] = n_users
    elif kind == "spikes":
        for index in draw(st.lists(st.integers(0, 23), min_size=1, max_size=2)):
            counts[index] += draw(st.integers(1, 500))
    else:
        shape = np.ones(len(ZONE_OFFSETS))
        if kind == "humps":
            offsets = np.asarray(ZONE_OFFSETS, dtype=float)
            shape = np.zeros(len(ZONE_OFFSETS))
            for _ in range(draw(st.integers(1, 3))):
                mean = draw(st.floats(-12.0, 12.0))
                sigma = draw(st.floats(0.8, 3.0))
                weight = draw(st.floats(0.1, 1.0))
                for image in (mean - 24.0, mean, mean + 24.0):
                    shape += weight * np.exp(-0.5 * ((offsets - image) / sigma) ** 2)
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        counts = rng.multinomial(draw(st.integers(200, 600)), shape / shape.sum())
    total = float(counts.sum())
    return PlacementDistribution(tuple((counts / total).tolist()), n_users=int(total))


class TestLockstepKernel:
    """The batched EM kernel against the per-run loop it replaced."""

    @given(
        placement=_placements(),
        sigma_init=st.sampled_from([1.0, 2.5, 3.5]),
        max_iter=st.sampled_from([1, 14, 15, 16, 500]),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_sequential_oracle(self, placement, sigma_init, max_iter):
        calls = [
            (fit_mixture, em_oracle.fit_mixture, (placement, k),
             {"sigma_init": sigma_init, "max_iter": max_iter})
            for k in range(1, 5)
        ] + [
            (select_mixture, em_oracle.select_mixture, (placement,),
             {"sigma_init": sigma_init, "criterion": criterion})
            for criterion in ("aic", "bic")
        ]
        for fit, oracle, args, kwargs in calls:
            model, counts = _fit_and_count(fit, *args, **kwargs)
            expected, expected_counts = _fit_and_count(oracle, *args, **kwargs)
            # == compares every field; repr spells each float to its last
            # bit and its type.
            assert model == expected
            assert repr(model) == repr(expected)
            assert counts == expected_counts

    def test_fallback_reuses_the_batch_k1_fit(self):
        # min_weight above 1 discards every candidate, even k = 1.
        placement = _placement(_components((3.0, 2.0, 1.0)))
        model, counts = _fit_and_count(select_mixture, placement, min_weight=1.5)
        assert model == fit_mixture(placement, 1)
        assert counts["repro_core_em_runs_total"] == 4 * 5


class TestIterationCap:
    @pytest.mark.parametrize(
        "max_iter, iterations, stall_cutoffs",
        [(500, 15, 1), (16, 15, 1), (15, 15, 1), (14, 14, 0)],
    )
    def test_effective_cap_is_min_of_max_iter_and_fifteen(
        self, max_iter, iterations, stall_cutoffs
    ):
        # No start of this k = 2 fit converges within 15 iterations.  Each
        # is cut off at iteration 15, counted as a stall, however large
        # max_iter is; below 15, max_iter ends the run without a stall.
        placement = _placement(_components((-6.0, 1.6, 0.4), (1.0, 1.6, 0.6)))
        model, counts = _fit_and_count(fit_mixture, placement, 2, max_iter=max_iter)
        assert not model.converged
        assert counts["repro_core_em_runs_total"] == 5
        assert counts["repro_core_em_iterations_total"] == 5 * iterations
        assert counts["repro_core_em_stall_cutoffs_total"] == 5 * stall_cutoffs
