"""The per-user reduction, its in-order merge and the sharded engine.

Merging the partials of any shard count must equal one reduction of the
whole store, in store order; the shard bounds must tile the store
exactly; ``CrowdGeolocator.geolocate_store`` (also spelled
``geolocate_store_sharded``) must reproduce the whole-store oracle of
``store_oracle.py`` bit for bit, for any shard and worker count, and
agree with ``geolocate()`` on the same crowd, zero-post users included.
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
from repro.core.batch import ProfileMatrix, masked_counts
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
from repro.errors import DatasetError, EmptyTraceError, ProfileError
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


def _shard_partial(store, refs, start: int, stop: int) -> ShardPartial:
    """One ``compute_shard_partial`` over the users ``[start, stop)``."""
    shard = store.shard(start, stop)
    return compute_shard_partial(
        shard.user_ids, shard.lengths, shard.stamps, refs, min_posts=MIN_POSTS
    )


def _assert_partials_equal(a: ShardPartial, b: ShardPartial) -> None:
    assert a.user_ids == b.user_ids
    np.testing.assert_array_equal(a.profiles, b.profiles)
    np.testing.assert_array_equal(a.totals, b.totals)
    np.testing.assert_array_equal(a.counts, b.counts)
    np.testing.assert_array_equal(a.lengths, b.lengths)
    np.testing.assert_array_equal(a.flat_mask, b.flat_mask)
    np.testing.assert_array_equal(a.zone_indices, b.zone_indices)
    assert a.n_admitted == b.n_admitted


class TestInOrderMerge:
    @pytest.mark.parametrize("n_shards", [1, 3, 8, 500])
    def test_merge_equals_one_whole_store_partial(self, shard_store, refs, n_shards):
        """Every admitted user once, in store order, whatever the sharding."""
        merged = merge_partials(
            compute_partials(shard_store, refs, min_posts=MIN_POSTS, n_shards=n_shards)
        )
        whole = _shard_partial(shard_store, refs, 0, len(shard_store))
        _assert_partials_equal(merged, whole)
        admitted = [
            user_id
            for user_id, length in zip(shard_store.user_ids(), shard_store.lengths())
            if length >= MIN_POSTS
        ]
        assert list(merged.user_ids) == admitted
        assert merged.n_admitted == len(merged) == len(admitted) < len(shard_store)
        shard = shard_store.shard(0, len(shard_store))
        _, _, raw = masked_counts(
            shard.user_ids, shard.lengths, shard.stamps, shard.lengths >= MIN_POSTS
        )
        np.testing.assert_array_equal(merged.counts, raw)
        assert merged.flat_mask.any()  # the polish path is exercised

    @given(
        st.lists(
            st.lists(st.integers(0, 2**40), min_size=24, max_size=24),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_counts_come_back_exactly(self, rows):
        """``counts`` recovers integer rows from their normalised form."""
        counts = np.asarray(rows, dtype=float)
        counts[:, 0] += 1.0
        matrix = ProfileMatrix.from_counts([f"u{i}" for i in range(len(rows))], counts)
        n = len(rows)
        partial = ShardPartial(
            user_ids=matrix.user_ids,
            profiles=matrix.matrix,
            totals=counts.sum(axis=1),
            lengths=np.ones(n, dtype=np.int64),
            flat_mask=np.zeros(n, dtype=bool),
            zone_indices=np.zeros(n, dtype=np.int64),
            n_admitted=n,
        )
        np.testing.assert_array_equal(partial.counts, counts)


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

    @pytest.mark.parametrize("n_shards, max_workers", [(None, 1), (2, 1), (8, 2)])
    def test_id_repeated_across_shards_refused(
        self, tmp_path, monkeypatch, n_shards, max_workers
    ):
        """A damaged id table: a repeated id is refused, not merged away."""
        monkeypatch.setattr(shard_module, "_usable_cores", lambda: 4)
        TraceStore.write(_crowd(40, seed=3), tmp_path / "s")
        path = tmp_path / "s" / "user_ids.npy"
        ids = np.load(path)
        ids[35] = ids[0]  # both active zoned users, in different shards
        np.save(path, ids)
        store = TraceStore.open(tmp_path / "s")
        with pytest.raises(ProfileError, match="duplicate user ids"):
            CrowdGeolocator(min_posts=MIN_POSTS).geolocate_store(
                store, n_shards=n_shards, max_workers=max_workers
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


class TestBatchAndStoreAgree:
    """``geolocate_store`` and ``geolocate`` report the same crowd alike."""

    @pytest.mark.parametrize("min_posts", [0, 30])
    @pytest.mark.parametrize("n_shards, max_workers", [(None, 1), (8, 1), (8, 2)])
    def test_zero_post_users_count_alike(
        self, tmp_path, monkeypatch, n_shards, max_workers, min_posts
    ):
        monkeypatch.setattr(shard_module, "_usable_cores", lambda: 4)
        traces = list(_crowd(40, seed=11))
        for index in (0, 17, 40):
            traces.insert(index, ActivityTrace(f"silent{index}"))
        store = TraceStore.write(traces, tmp_path / "crowd.store")
        locator = CrowdGeolocator(min_posts=min_posts)
        batch = locator.geolocate(store.to_trace_set(), crowd_name="c")
        report = locator.geolocate_store(
            store, crowd_name="c", n_shards=n_shards, max_workers=max_workers
        )
        _assert_reports_identical(batch, report)
        admitted = int(np.count_nonzero(store.lengths() >= min_posts))
        assert report.n_users + report.n_removed_flat == admitted
        assert (admitted == len(store)) == (min_posts == 0)


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
        _shard_partial(store, refs, start, stop)
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
        started: list[str] = []
        lock = threading.Lock()

        def _flaky(user_ids, *args, **kwargs):
            with lock:
                started.append(user_ids[0])
            if user_ids[0] == "user0002":
                raise _ShardFailure(f"shard at {user_ids[0]}")
            time.sleep(0.002)  # lets the failing thread record its error
            return real(user_ids, *args, **kwargs)

        monkeypatch.setattr(shard_module, "compute_shard_partial", _flaky)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(_ShardFailure, match="shard at user0002"):
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
            assert started == ["user0000", "user0001", "user0002"]

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
        calls: list[str] = []
        lock = threading.Lock()

        def _counted(user_ids, *args, **kwargs):
            with lock:
                calls.append(user_ids[0])
            return real(user_ids, *args, **kwargs)

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
        assert sorted(calls) == shard_store.user_ids()
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
