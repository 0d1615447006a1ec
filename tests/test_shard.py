"""The shard algebra and the sharded engine's bit-identity to the oracle.

``ShardPartial`` must behave as a commutative monoid (Hypothesis pins
associativity, commutativity and the empty-shard identity), the shard
bounds must tile the store exactly, and ``CrowdGeolocator.geolocate_store``
(also spelled ``geolocate_store_sharded``) must reproduce the whole-store
oracle of ``store_oracle.py`` bit for bit, for any shard and worker count.
"""

from __future__ import annotations

import concurrent.futures

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.events import ActivityTrace, TraceSet
from repro.core.geolocate import CrowdGeolocator, GeolocationReport
from repro.core.reference import ReferenceProfiles
from repro.core.shard import (
    ShardPartial,
    compute_partials,
    compute_shard_partial,
    merge_partials,
)
from repro.datasets.store import TraceStore
from repro.errors import DatasetError, EmptyTraceError
from store_oracle import geolocate_store_oracle

MIN_POSTS = 10

#: A pool that cannot run its workers falls back inline with a
#: RuntimeWarning and still matches the oracle; erroring on the warning
#: makes every pooled test fail on that silent fallback (e.g. an
#: unpicklable worker).
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _crowd(n_users: int, seed: int) -> TraceSet:
    """Mixed crowd: zoned users, flat (bot-like) users, low-activity users."""
    rng = np.random.default_rng(seed)
    traces = []
    for i in range(n_users):
        kind = i % 7
        if kind == 5:  # uniform poster: should be polished away
            stamps = np.sort(rng.uniform(0, 60 * 86400.0, size=120))
        elif kind == 6:  # below the activity threshold: dropped pre-polish
            stamps = np.sort(rng.uniform(0, 60 * 86400.0, size=3))
        else:
            zone = int(rng.integers(-11, 13))
            n = int(rng.integers(MIN_POSTS, 90))
            days = rng.integers(0, 60, size=n)
            hours = rng.normal(14.0 - zone, 2.5, size=n) % 24
            stamps = np.sort(days * 86400.0 + hours * 3600.0)
        traces.append(ActivityTrace(f"user{i:04d}", stamps))
    return TraceSet(traces)


@pytest.fixture(scope="module")
def shard_store(tmp_path_factory) -> TraceStore:
    path = tmp_path_factory.mktemp("shard") / "crowd.store"
    TraceStore.write(_crowd(61, seed=5), path)
    return TraceStore.open(path)


@pytest.fixture(scope="module")
def refs() -> ReferenceProfiles:
    return ReferenceProfiles.canonical()


@pytest.fixture(scope="module")
def partials(shard_store, refs) -> list[ShardPartial]:
    return [
        compute_shard_partial(
            shard_store.shard(start, stop), refs, min_posts=MIN_POSTS
        )
        for start, stop in shard_store.shard_bounds(6)
    ]


def _assert_partials_equal(a: ShardPartial, b: ShardPartial) -> None:
    np.testing.assert_array_equal(a.rows, b.rows)
    assert a.user_ids == b.user_ids
    np.testing.assert_array_equal(a.counts, b.counts)
    np.testing.assert_array_equal(a.lengths, b.lengths)
    np.testing.assert_array_equal(a.flat_mask, b.flat_mask)
    np.testing.assert_array_equal(a.zone_indices, b.zone_indices)
    np.testing.assert_array_equal(a.placement_counts, b.placement_counts)
    assert a.n_users_seen == b.n_users_seen


class TestShardAlgebra:
    @given(order=st.permutations(list(range(6))))
    @settings(max_examples=40, deadline=None)
    def test_merge_is_commutative_under_any_order(self, partials, order):
        """Any fold order over the same partials yields the canonical value."""
        canonical = merge_partials(list(partials))
        permuted = merge_partials([partials[i] for i in order])
        _assert_partials_equal(canonical, permuted)

    @given(i=st.integers(0, 5), j=st.integers(0, 5), k=st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_merge_is_associative(self, partials, i, j, k):
        distinct = sorted({i, j, k})
        if len(distinct) < 3:
            return
        a, b, c = (partials[n] for n in distinct)
        _assert_partials_equal(a.merge(b).merge(c), a.merge(b.merge(c)))

    def test_empty_shard_is_the_identity(self, partials):
        empty = ShardPartial.identity()
        for partial in partials:
            _assert_partials_equal(empty.merge(partial), partial)
            _assert_partials_equal(partial.merge(empty), partial)
        _assert_partials_equal(empty.merge(empty), empty)

    def test_overlapping_partials_refused(self, partials):
        with pytest.raises(DatasetError, match="overlapping"):
            partials[0].merge(partials[0])

    def test_placement_histogram_merges_by_addition(self, partials):
        merged = merge_partials(list(partials))
        np.testing.assert_array_equal(
            merged.placement_counts,
            np.sum([p.placement_counts for p in partials], axis=0),
        )
        np.testing.assert_array_equal(
            merged.placement_counts,
            np.bincount(
                merged.zone_indices[~merged.flat_mask], minlength=24
            ),
        )

    def test_merged_covers_every_user_once(self, shard_store, partials):
        merged = merge_partials(list(partials))
        assert merged.n_users_seen == len(shard_store)
        assert np.all(np.diff(merged.rows) > 0)
        assert len(set(merged.user_ids)) == len(merged.user_ids)

    def test_invariant_violations_refused(self):
        good = ShardPartial.identity()
        with pytest.raises(DatasetError, match="user ids"):
            ShardPartial(
                rows=np.array([0], dtype=np.int64),
                user_ids=(),
                counts=np.zeros((1, 24)),
                lengths=np.array([5], dtype=np.int64),
                flat_mask=np.zeros(1, dtype=bool),
                zone_indices=np.zeros(1, dtype=np.int64),
                placement_counts=np.zeros(24, dtype=np.int64),
                n_users_seen=1,
            )
        with pytest.raises(DatasetError, match="strictly increasing"):
            ShardPartial(
                rows=np.array([3, 3], dtype=np.int64),
                user_ids=("a", "b"),
                counts=np.zeros((2, 24)),
                lengths=np.array([5, 5], dtype=np.int64),
                flat_mask=np.zeros(2, dtype=bool),
                zone_indices=np.zeros(2, dtype=np.int64),
                placement_counts=np.zeros(24, dtype=np.int64),
                n_users_seen=2,
            )
        assert len(good) == 0


class TestShardBounds:
    @given(n_shards=st.integers(1, 80))
    @settings(max_examples=60, deadline=None)
    def test_bounds_tile_the_store_exactly(self, shard_store, n_shards):
        """Every user (including boundary users) lands in exactly one shard."""
        bounds = shard_store.shard_bounds(n_shards)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == len(shard_store)
        for (_, stop), (start, _) in zip(bounds[:-1], bounds[1:]):
            assert stop == start
        sizes = [stop - start for start, stop in bounds]
        assert all(size > 0 for size in sizes)
        assert max(sizes) - min(sizes) <= 1
        covered = [
            i for start, stop in bounds for i in range(start, stop)
        ]
        assert covered == list(range(len(shard_store)))

    def test_more_shards_than_users(self, shard_store):
        bounds = shard_store.shard_bounds(10 * len(shard_store))
        assert len(bounds) == len(shard_store)

    def test_invalid_counts_refused(self, shard_store):
        with pytest.raises(DatasetError, match="positive"):
            shard_store.shard_bounds(0)
        with pytest.raises(DatasetError, match="outside"):
            shard_store.shard(0, len(shard_store) + 1)


def _assert_reports_identical(
    a: GeolocationReport, b: GeolocationReport
) -> None:
    assert a.user_zones == b.user_zones
    assert a.placement.fractions == b.placement.fractions
    assert a.placement.n_users == b.placement.n_users
    np.testing.assert_array_equal(a.crowd_profile.mass, b.crowd_profile.mass)
    assert a.n_users == b.n_users
    assert a.n_posts == b.n_posts
    assert a.n_removed_flat == b.n_removed_flat
    assert a.mixture == b.mixture
    assert a.pearson_vs_generic == b.pearson_vs_generic
    assert a.fit_metrics == b.fit_metrics


class TestShardedOracle:
    @pytest.mark.parametrize("n_shards", [1, 2, 8])
    def test_bit_identical_to_geolocate_store(self, shard_store, n_shards):
        locator = CrowdGeolocator(min_posts=MIN_POSTS)
        oracle = geolocate_store_oracle(locator, shard_store, crowd_name="c")
        sharded = locator.geolocate_store_sharded(
            shard_store, crowd_name="c", n_shards=n_shards, max_workers=1
        )
        _assert_reports_identical(oracle, sharded)
        assert oracle.n_removed_flat > 0  # the polish path is exercised

    def test_bit_identical_without_polish(self, shard_store):
        locator = CrowdGeolocator(min_posts=MIN_POSTS)
        oracle = geolocate_store_oracle(
            locator, shard_store, crowd_name="c", polish=False
        )
        sharded = locator.geolocate_store_sharded(
            shard_store, crowd_name="c", polish=False, n_shards=3
        )
        _assert_reports_identical(oracle, sharded)

    def test_bit_identical_across_worker_pool(self, shard_store):
        locator = CrowdGeolocator(min_posts=MIN_POSTS)
        oracle = geolocate_store_oracle(locator, shard_store, crowd_name="c")
        pooled = locator.geolocate_store_sharded(
            shard_store, crowd_name="c", n_shards=4, max_workers=2
        )
        _assert_reports_identical(oracle, pooled)

    @pytest.mark.parametrize("polish", [True, False])
    @pytest.mark.parametrize("max_workers", [1, 2])
    @pytest.mark.parametrize("n_shards", [None, 1, 2, 8])
    def test_store_entry_points_match_oracle(
        self, shard_store, n_shards, max_workers, polish
    ):
        """Default and explicit shard counts, inline and pooled, polish on/off."""
        locator = CrowdGeolocator(min_posts=MIN_POSTS)
        oracle = geolocate_store_oracle(
            locator, shard_store, crowd_name="c", polish=polish
        )
        report = locator.geolocate_store(
            shard_store,
            crowd_name="c",
            polish=polish,
            n_shards=n_shards,
            max_workers=max_workers,
        )
        _assert_reports_identical(oracle, report)

    def test_all_users_below_threshold_raises(self, tmp_path):
        sparse = TraceSet(
            ActivityTrace(f"u{i}", [float(i * 3600), float(i * 7200 + 60)])
            for i in range(8)
        )
        store = TraceStore.write(sparse, tmp_path / "sparse.store")
        locator = CrowdGeolocator(min_posts=MIN_POSTS)
        with pytest.raises(EmptyTraceError):
            locator.geolocate_store(store, crowd_name="c")
        with pytest.raises(EmptyTraceError):
            locator.geolocate_store_sharded(
                store, crowd_name="c", n_shards=3
            )

    def test_broken_pool_degrades_to_inline(self, shard_store, monkeypatch):
        locator = CrowdGeolocator(min_posts=MIN_POSTS)
        oracle = geolocate_store_oracle(locator, shard_store, crowd_name="c")

        def _broken_pool(*args, **kwargs):
            raise OSError("no process pool in this sandbox")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _broken_pool
        )
        with pytest.warns(RuntimeWarning, match="computing shards inline"):
            fallback = locator.geolocate_store_sharded(
                shard_store, crowd_name="c", n_shards=4, max_workers=2
            )
        _assert_reports_identical(oracle, fallback)


class TestComputePartials:
    def test_inline_and_pool_partials_identical(self, shard_store, refs):
        inline = compute_partials(
            shard_store, refs, min_posts=MIN_POSTS, n_shards=5, max_workers=1
        )
        pooled = compute_partials(
            shard_store, refs, min_posts=MIN_POSTS, n_shards=5, max_workers=2
        )
        assert len(inline) == len(pooled) == 5
        for a, b in zip(inline, pooled):
            _assert_partials_equal(a, b)

    def test_single_shard_partial_is_the_whole_crowd(self, shard_store, refs):
        (only,) = compute_partials(
            shard_store, refs, min_posts=MIN_POSTS, n_shards=1
        )
        merged = merge_partials(
            compute_partials(
                shard_store, refs, min_posts=MIN_POSTS, n_shards=7
            )
        )
        _assert_partials_equal(only, merged)
