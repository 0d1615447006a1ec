"""The shard algebra and the sharded engine's bit-identity to the oracle.

``ShardPartial`` must behave as a commutative monoid (Hypothesis pins
associativity, commutativity and the empty-shard identity), the shard
bounds must tile the store exactly, and ``CrowdGeolocator.geolocate_store``
(also spelled ``geolocate_store_sharded``) must reproduce the whole-store
oracle of ``store_oracle.py`` bit for bit, for any shard and worker count.
"""

from __future__ import annotations

import multiprocessing.process
import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.shard as shard_module
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

#: A fan-out whose helper threads cannot start falls back inline with a
#: RuntimeWarning and still matches the oracle; erroring on the warning
#: makes every pooled test fail on that silent fallback.
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

    def test_bit_identical_across_worker_pool(self, shard_store):
        locator = CrowdGeolocator(min_posts=MIN_POSTS)
        oracle = geolocate_store_oracle(locator, shard_store, crowd_name="c")
        pooled = locator.geolocate_store_sharded(
            shard_store, crowd_name="c", n_shards=4, max_workers=2
        )
        _assert_reports_identical(oracle, pooled)

    @pytest.mark.parametrize("max_workers", [1, 2])
    @pytest.mark.parametrize("n_shards", [None, 1, 2, 8])
    def test_store_entry_points_match_oracle(
        self, shard_store, n_shards, max_workers
    ):
        """Default and explicit shard counts, inline and pooled."""
        locator = CrowdGeolocator(min_posts=MIN_POSTS)
        oracle = geolocate_store_oracle(locator, shard_store, crowd_name="c")
        report = locator.geolocate_store(
            shard_store,
            crowd_name="c",
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

        def _no_thread(thread):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(shard_module, "_usable_cores", lambda: 4)
        monkeypatch.setattr(threading.Thread, "start", _no_thread)
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


class _ShardFailure(Exception):
    """Raised by one shard in the fan-out tests."""


def _inline_partials(store, refs, n_shards):
    return [
        compute_shard_partial(store.shard(start, stop), refs, min_posts=MIN_POSTS)
        for start, stop in store.shard_bounds(n_shards)
    ]


def _shard_threads_alive() -> list[threading.Thread]:
    return [
        thread
        for thread in threading.enumerate()
        if thread.name == "repro-shard" and thread.is_alive()
    ]


class TestThreadFanOut:
    """The helper-thread fan-out: order, errors, fallback and thread caps.

    ``_usable_cores`` is forced above 1 where a test needs helper threads,
    so they run on a one-core runner too.
    """

    @pytest.mark.parametrize("n_shards", [1, 3, 8, 500])
    @pytest.mark.parametrize("max_workers", [1, 2, 3])
    def test_partials_equal_inline_in_shard_order(
        self, shard_store, refs, monkeypatch, n_shards, max_workers
    ):
        monkeypatch.setattr(shard_module, "_usable_cores", lambda: 4)
        expected = _inline_partials(shard_store, refs, n_shards)
        got = compute_partials(
            shard_store,
            refs,
            min_posts=MIN_POSTS,
            n_shards=n_shards,
            max_workers=max_workers,
        )
        assert len(got) == len(expected) == min(n_shards, len(shard_store))
        for a, b in zip(got, expected):
            _assert_partials_equal(a, b)
        assert not _shard_threads_alive()

    @pytest.mark.parametrize("max_workers", [1, 3])
    def test_failing_shard_raises_its_own_error(
        self, shard_store, refs, monkeypatch, max_workers
    ):
        monkeypatch.setattr(shard_module, "_usable_cores", lambda: 4)
        real = shard_module.compute_shard_partial
        started: list[int] = []
        lock = threading.Lock()

        def _flaky(shard, *args, **kwargs):
            with lock:
                started.append(shard.start_index)
            if shard.start_index == 2:
                raise _ShardFailure(f"shard at {shard.start_index}")
            time.sleep(0.002)  # lets the failing thread record its error
            return real(shard, *args, **kwargs)

        monkeypatch.setattr(shard_module, "compute_shard_partial", _flaky)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(_ShardFailure, match="shard at 2"):
                compute_partials(
                    shard_store,
                    refs,
                    min_posts=MIN_POSTS,
                    n_shards=len(shard_store),
                    max_workers=max_workers,
                )
        assert not _shard_threads_alive()
        # Shards run in order; after the failure no thread takes another.
        assert len(started) < len(shard_store)
        if max_workers == 1:
            assert started == [0, 1, 2]

    def test_helper_that_cannot_start_leaves_the_rest_to_the_caller(
        self, shard_store, monkeypatch
    ):
        locator = CrowdGeolocator(min_posts=MIN_POSTS)
        oracle = geolocate_store_oracle(locator, shard_store, crowd_name="c")
        real_start = threading.Thread.start
        attempts: list[str] = []

        def _second_fails(thread):
            attempts.append(thread.name)
            if len(attempts) == 2:
                raise RuntimeError("can't start new thread")
            real_start(thread)

        monkeypatch.setattr(shard_module, "_usable_cores", lambda: 4)
        monkeypatch.setattr(threading.Thread, "start", _second_fails)
        with pytest.warns(RuntimeWarning, match="computing shards inline"):
            report = locator.geolocate_store_sharded(
                shard_store, crowd_name="c", n_shards=8, max_workers=4
            )
        assert attempts == ["repro-shard", "repro-shard"]
        _assert_reports_identical(oracle, report)

    @pytest.mark.parametrize("cores", [None, 3])
    def test_helpers_capped_by_usable_cores(
        self, shard_store, refs, monkeypatch, cores
    ):
        if cores is not None:
            monkeypatch.setattr(shard_module, "_usable_cores", lambda: cores)
        usable = shard_module._usable_cores()
        real_start = threading.Thread.start
        starts: list[str] = []

        def _counting(thread):
            starts.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", _counting)
        partials = compute_partials(
            shard_store, refs, min_posts=MIN_POSTS, n_shards=50, max_workers=10_000
        )
        assert len(partials) == 50
        assert len(starts) <= usable - 1
        if cores is not None:
            assert starts == ["repro-shard"] * (cores - 1)

    def test_stress_each_shard_once_in_order(self, shard_store, refs, monkeypatch):
        """More threads than cores, a tiny switch interval: no lost update."""
        monkeypatch.setattr(shard_module, "_usable_cores", lambda: 8)
        real = shard_module.compute_shard_partial
        calls: list[int] = []
        lock = threading.Lock()

        def _counted(shard, *args, **kwargs):
            with lock:
                calls.append(shard.start_index)
            return real(shard, *args, **kwargs)

        monkeypatch.setattr(shard_module, "compute_shard_partial", _counted)
        expected = _inline_partials(shard_store, refs, len(shard_store))
        got: list[list[ShardPartial]] = []
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(
                target=lambda: got.append(
                    compute_partials(
                        shard_store,
                        refs,
                        min_posts=MIN_POSTS,
                        n_shards=len(shard_store),
                        max_workers=8,
                    )
                )
            )
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not runner.is_alive()
        assert sorted(calls) == list(range(len(shard_store)))
        (partials,) = got
        assert len(partials) == len(expected)
        for a, b in zip(partials, expected):
            _assert_partials_equal(a, b)

    def test_pooled_call_starts_no_child_process(
        self, shard_store, monkeypatch
    ):
        def _no_child(*args, **kwargs):
            raise AssertionError("the fan-out started a child process")

        monkeypatch.setattr(shard_module, "_usable_cores", lambda: 4)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", _no_child)
        monkeypatch.setattr(os, "fork", _no_child)
        locator = CrowdGeolocator(min_posts=MIN_POSTS)
        oracle = geolocate_store_oracle(locator, shard_store, crowd_name="c")
        pooled = locator.geolocate_store_sharded(
            shard_store, crowd_name="c", n_shards=8, max_workers=4
        )
        _assert_reports_identical(oracle, pooled)
