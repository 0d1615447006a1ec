"""Microbenchmarks of the hot inference paths.

These are true pytest-benchmark timings (many rounds): EMD evaluation,
the vectorised placement matrix, Eq. 1 profile construction, EM fitting,
mixture selection and the end-to-end geolocation.  They guard against
performance regressions in the code the figure benches lean on.
"""

from __future__ import annotations

import numpy as np
import pytest

from _shared import synthetic_crowd
from repro.core.batch import ProfileMatrix
from repro.core.emd import distance_matrix, emd_circular, emd_linear
from repro.core.em import fit_mixture, select_mixture
from repro.core.events import ActivityTrace
from repro.core.gaussian import GaussianComponent, mixture_pdf
from repro.core.geolocate import CrowdGeolocator
from repro.core.placement import PlacementDistribution, classify_profiles
from repro.core.profiles import Profile, build_user_profile
from repro.core.reference import ReferenceProfiles
from repro.core.shard import compute_shard_partial
from repro.timebase.zones import ZONE_OFFSETS


def _random_profiles(n, seed=0):
    rng = np.random.default_rng(seed)
    return [Profile(rng.random(24) + 0.01) for _ in range(n)]


def test_emd_linear_speed(benchmark):
    a, b = _random_profiles(2)
    result = benchmark(emd_linear, a, b)
    assert result >= 0.0


def test_emd_circular_speed(benchmark):
    a, b = _random_profiles(2)
    result = benchmark(emd_circular, a, b)
    assert result >= 0.0


def test_placement_matrix_speed(benchmark):
    profiles = _random_profiles(200, seed=1)
    references = _random_profiles(24, seed=2)
    matrix = benchmark(distance_matrix, profiles, references, "linear")
    assert matrix.shape == (200, 24)


@pytest.mark.parametrize("rows", [1, 120, 1_100, 7_500, 60_000])
def test_classify_profiles_speed(benchmark, rows):
    # The workloads' placement shapes: a one-row drift re-placement, a
    # snapshot refresh, a census crowd, a store shard and a whole store.
    rng = np.random.default_rng(rows)
    matrix = ProfileMatrix(
        [f"u{i}" for i in range(rows)], rng.dirichlet(np.full(24, 0.4), size=rows)
    )
    flat, nearest = benchmark(
        classify_profiles, matrix, ReferenceProfiles.canonical()
    )
    assert flat.shape == nearest.shape == (rows,)


def test_profile_build_speed(benchmark):
    rng = np.random.default_rng(3)
    trace = ActivityTrace("u", rng.uniform(0, 366 * 86400, size=2000))
    profile = benchmark(build_user_profile, trace)
    assert len(profile) == 24


def test_em_fit_speed(benchmark):
    offsets = np.asarray(ZONE_OFFSETS, dtype=float)
    components = [
        GaussianComponent(mean=-6.0, sigma=1.6, weight=0.5),
        GaussianComponent(mean=2.0, sigma=1.6, weight=0.5),
    ]
    density = np.asarray(mixture_pdf(components, offsets))
    placement = PlacementDistribution(
        tuple((density / density.sum()).tolist()), n_users=400
    )
    model = benchmark(fit_mixture, placement, 2)
    assert model.k == 2


def test_select_mixture_speed(benchmark):
    # Two crowds across the +-12 h seam (UTC+11 and UTC-9, 4 zones apart
    # around the circle), each hump wrapped with its images at +-24 h.
    offsets = np.asarray(ZONE_OFFSETS, dtype=float)
    components = [
        GaussianComponent(mean=mean + image, sigma=1.6, weight=weight)
        for mean, weight in ((11.0, 0.6), (-9.0, 0.4))
        for image in (-24.0, 0.0, 24.0)
    ]
    density = np.asarray(mixture_pdf(components, offsets))
    placement = PlacementDistribution(
        tuple((density / density.sum()).tolist()), n_users=400
    )
    model = benchmark(select_mixture, placement, criterion="aic")
    assert 1 <= model.k <= 4


@pytest.fixture(scope="module")
def crowd_5k():
    return synthetic_crowd(5_000, seed=11)


def test_profile_matrix_build_speed(benchmark, crowd_5k):
    matrix = benchmark(ProfileMatrix.from_trace_set, crowd_5k)
    assert len(matrix) == 5_000


def test_shard_partial_speed(benchmark, crowd_5k):
    # The per-user reduction geolocate() runs (Eq. 1, flat flag, zone).
    columns = crowd_5k.columns()
    references = ReferenceProfiles.canonical()
    partial = benchmark(compute_shard_partial, *columns, references, min_posts=30)
    assert partial.flat_mask.any()


def test_geolocate_end_to_end_speed(benchmark, crowd_5k):
    locator = CrowdGeolocator()
    report = benchmark(locator.geolocate, crowd_5k)
    assert report.n_users > 4_000
