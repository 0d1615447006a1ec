"""Columnar trace store: layout, round-trips, sharded out-of-core reads."""

from __future__ import annotations

import hashlib
import json
import re

import numpy as np
import pytest

from repro.core.batch import ProfileMatrix
from repro.core.events import ActivityTrace, TraceSet
from repro.core.geolocate import CrowdGeolocator
from repro.datasets.store import (
    _WRITE_BLOCK_TRACES,
    DEFAULT_SHARD_USERS,
    TraceStore,
    convert_jsonl,
)
from repro.datasets.traces import save_trace_set
from repro.errors import DatasetError, EmptyTraceError


def _crowd(n_users: int = 40, seed: int = 9, posts: int = 50) -> TraceSet:
    rng = np.random.default_rng(seed)
    traces = []
    for i in range(n_users):
        zone = int(rng.integers(-11, 13))
        days = rng.integers(0, 60, size=posts)
        hours = rng.normal(14.0 - zone, 2.5, size=posts) % 24
        traces.append(
            ActivityTrace(f"user{i:03d}", days * 86400.0 + hours * 3600.0)
        )
    return TraceSet(traces)


class TestStoreRoundTrip:
    def test_write_open_preserves_traces(self, tmp_path):
        crowd = _crowd(12)
        store = TraceStore.write(crowd, tmp_path / "crowd.store")
        reopened = TraceStore.open(tmp_path / "crowd.store")
        assert len(reopened) == len(crowd)
        assert reopened.total_posts() == crowd.total_posts()
        for trace in crowd:
            np.testing.assert_array_equal(
                reopened.stamps_of(trace.user_id), trace.timestamps
            )
        assert "user000" in reopened
        assert "ghost" not in reopened
        del store

    def test_to_trace_set_is_the_inverse(self, tmp_path):
        crowd = _crowd(8)
        TraceStore.write(crowd, tmp_path / "s")
        back = TraceStore.open(tmp_path / "s").to_trace_set()
        assert set(back.user_ids()) == set(crowd.user_ids())
        for trace in crowd:
            np.testing.assert_array_equal(
                back[trace.user_id].timestamps, trace.timestamps
            )

    def test_empty_crowd_round_trips(self, tmp_path):
        TraceStore.write(TraceSet(), tmp_path / "empty")
        store = TraceStore.open(tmp_path / "empty")
        assert len(store) == 0
        assert store.total_posts() == 0
        assert store.shard_bounds(1) == []

    def test_zero_post_user_round_trips(self, tmp_path):
        crowd = TraceSet(
            [ActivityTrace("posts", [100.0, 200.0]), ActivityTrace("silent")]
        )
        TraceStore.write(crowd, tmp_path / "s")
        store = TraceStore.open(tmp_path / "s")
        assert store.stamps_of("silent").size == 0
        assert store.lengths().tolist() == [2, 0]

    def test_duplicate_user_ids_refused(self, tmp_path):
        duplicated = [
            ActivityTrace("u", [1.0]),
            ActivityTrace("u", [2.0]),
        ]
        with pytest.raises(DatasetError, match="duplicate"):
            TraceStore.write(iter(duplicated), tmp_path / "s")

    def test_duplicate_in_a_later_block_leaves_destination_alone(self, tmp_path):
        # The repeat of "u0" arrives after the first block was written.
        traces = [
            ActivityTrace(f"u{i}", [float(i)])
            for i in range(_WRITE_BLOCK_TRACES + 1)
        ] + [ActivityTrace("u0", [1.0])]
        with pytest.raises(DatasetError, match="duplicate"):
            TraceStore.write(traces, tmp_path / "s")
        assert list(tmp_path.iterdir()) == []
        TraceStore.write(_crowd(3), tmp_path / "kept")
        with pytest.raises(DatasetError, match="duplicate"):
            TraceStore.write(iter(traces), tmp_path / "kept")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["kept"]
        assert TraceStore.open(tmp_path / "kept").user_ids() == _crowd(3).user_ids()

    def test_user_id_with_trailing_nul_refused(self, tmp_path):
        # The unicode id column would read "a\x00" back as "a".
        traces = [ActivityTrace("a", [1.0]), ActivityTrace("a\x00", [2.0])]
        with pytest.raises(DatasetError, match=re.escape(repr("a\x00"))):
            TraceStore.write(traces, tmp_path / "s")
        assert not (tmp_path / "s").exists()
        chunks = [(["x\x00"], np.array([1], dtype=np.int64), np.array([1.0]))]
        with pytest.raises(DatasetError, match=re.escape(repr("x\x00"))):
            TraceStore.write_columns(iter(chunks), tmp_path / "c")
        assert not (tmp_path / "c").exists()

    def test_unknown_store_version_refused(self, tmp_path):
        TraceStore.write(_crowd(2), tmp_path / "s")
        meta_path = tmp_path / "s" / "meta.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        meta["version"] = 999
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(DatasetError, match="version"):
            TraceStore.open(tmp_path / "s")

    def test_missing_directory_refused(self, tmp_path):
        with pytest.raises(DatasetError):
            TraceStore.open(tmp_path / "absent")

    def test_decreasing_offset_table_refused(self, tmp_path):
        # Two swapped entries still start at 0 and end at the column's size.
        TraceStore.write(_crowd(4), tmp_path / "s")
        path = tmp_path / "s" / "offsets.npy"
        offsets = np.load(path)
        offsets[[1, 2]] = offsets[[2, 1]]
        np.save(path, offsets)
        with pytest.raises(DatasetError, match="offset table decreases"):
            TraceStore.open(tmp_path / "s")


class TestShardedReads:
    def test_shards_tile_the_store(self, tmp_path):
        crowd = _crowd(23)
        TraceStore.write(crowd, tmp_path / "s")
        store = TraceStore.open(tmp_path / "s")
        shards = [store.shard(start, stop) for start, stop in store.shard_bounds(5)]
        assert [len(shard) for shard in shards] == [5, 4, 5, 4, 5]
        assert sum(shard.n_posts() for shard in shards) == store.total_posts()
        seen = [user_id for shard in shards for user_id in shard.user_ids]
        assert seen == store.user_ids()

    def test_default_shard_size_is_bounded(self, tmp_path, monkeypatch):
        TraceStore.write(_crowd(6), tmp_path / "s")
        store = TraceStore.open(tmp_path / "s")
        assert DEFAULT_SHARD_USERS >= 6
        assert store.default_shard_count() == 1
        # from_store walks one shard per DEFAULT_SHARD_USERS users.
        walked: list[tuple[int, int]] = []
        real_shard = TraceStore.shard

        def _recording(self, start, stop):
            walked.append((start, stop))
            return real_shard(self, start, stop)

        monkeypatch.setattr(TraceStore, "shard", _recording)
        monkeypatch.setattr("repro.datasets.store.DEFAULT_SHARD_USERS", 4)
        ProfileMatrix.from_store(store)
        assert store.default_shard_count() == 2
        assert walked == [(0, 3), (3, 6)]

    def test_from_store_equals_from_trace_set(self, tmp_path):
        crowd = _crowd(30)
        TraceStore.write(crowd, tmp_path / "s")
        store = TraceStore.open(tmp_path / "s")
        via_store = ProfileMatrix.from_store(store)
        via_traces = ProfileMatrix.from_trace_set(crowd)
        assert via_store.user_ids == via_traces.user_ids
        np.testing.assert_array_equal(via_store.matrix, via_traces.matrix)

    def test_from_store_sharding_does_not_change_profiles(
        self, tmp_path, monkeypatch
    ):
        crowd = _crowd(30)
        TraceStore.write(crowd, tmp_path / "s")
        store = TraceStore.open(tmp_path / "s")
        whole = ProfileMatrix.from_store(store)
        monkeypatch.setattr("repro.datasets.store.DEFAULT_SHARD_USERS", 7)
        sharded = ProfileMatrix.from_store(store)
        assert sharded.user_ids == whole.user_ids
        np.testing.assert_array_equal(sharded.matrix, whole.matrix)

    def test_from_store_min_posts_matches_with_min_posts(self, tmp_path):
        rng = np.random.default_rng(3)
        crowd = TraceSet(
            ActivityTrace(
                f"u{i}", rng.uniform(0, 50 * 86400.0, size=int(rng.integers(1, 60)))
            )
            for i in range(25)
        )
        TraceStore.write(crowd, tmp_path / "s")
        store = TraceStore.open(tmp_path / "s")
        via_store = ProfileMatrix.from_store(store, min_posts=30)
        via_traces = ProfileMatrix.from_trace_set(crowd.with_min_posts(30))
        assert via_store.user_ids == via_traces.user_ids
        np.testing.assert_array_equal(via_store.matrix, via_traces.matrix)


class TestColumnChunks:
    def test_chunks_tile_the_columns_exactly(self, tmp_path):
        store = TraceStore.write(_crowd(n_users=23, posts=17), tmp_path / "s")
        ids: list[str] = []
        lengths: list[int] = []
        stamps: list[np.ndarray] = []
        for chunk_ids, chunk_lengths, chunk_stamps in store.iter_column_chunks(
            max_posts=100
        ):
            assert len(chunk_ids) == chunk_lengths.size
            assert int(chunk_lengths.sum()) == chunk_stamps.size
            ids.extend(chunk_ids)
            lengths.extend(int(n) for n in chunk_lengths)
            stamps.append(chunk_stamps)
        assert ids == list(store.user_ids())
        assert lengths == [len(store.trace(u)) for u in ids]
        np.testing.assert_array_equal(
            np.concatenate(stamps),
            np.concatenate([store.trace(u).timestamps for u in ids]),
        )

    def test_chunk_boundaries_never_split_a_user(self, tmp_path):
        store = TraceStore.write(_crowd(n_users=9, posts=40), tmp_path / "s")
        # 100 events is 2.5 users' worth: chunks hold whole users only.
        sizes = [
            len(chunk_ids)
            for chunk_ids, _, _ in store.iter_column_chunks(max_posts=100)
        ]
        assert sum(sizes) == 9
        assert all(size >= 1 for size in sizes)

    def test_oversized_user_gets_own_chunk(self, tmp_path):
        store = TraceStore.write(_crowd(n_users=4, posts=50), tmp_path / "s")
        chunks = list(store.iter_column_chunks(max_posts=1))
        assert [chunk_ids for chunk_ids, _, _ in chunks] == [
            [user_id] for user_id in store.user_ids()
        ]

    def test_single_chunk_when_budget_covers_the_crowd(self, tmp_path):
        store = TraceStore.write(_crowd(n_users=6, posts=10), tmp_path / "s")
        chunks = list(store.iter_column_chunks(max_posts=10_000))
        assert len(chunks) == 1
        assert chunks[0][2].size == store.total_posts()

    def test_nonpositive_budget_refused(self, tmp_path):
        store = TraceStore.write(_crowd(n_users=2, posts=5), tmp_path / "s")
        with pytest.raises(DatasetError, match="max_posts"):
            next(store.iter_column_chunks(max_posts=0))

    def test_empty_store_yields_nothing(self, tmp_path):
        store = TraceStore.write([], tmp_path / "s")
        assert list(store.iter_column_chunks(max_posts=10)) == []


class TestWriteColumns:
    def _chunks(self, crowd: TraceSet, chunk_users: int):
        traces = list(crowd)
        for start in range(0, len(traces), chunk_users):
            block = traces[start : start + chunk_users]
            yield (
                [trace.user_id for trace in block],
                np.array([len(trace) for trace in block], dtype=np.int64),
                np.concatenate(
                    [trace.timestamps for trace in block]
                )
                if block
                else np.zeros(0),
            )

    def test_equivalent_to_write(self, tmp_path):
        crowd = _crowd(17, seed=11)
        via_traces = TraceStore.write(crowd, tmp_path / "a")
        via_columns = TraceStore.write_columns(
            self._chunks(crowd, chunk_users=5), tmp_path / "b"
        )
        assert via_columns.user_ids() == via_traces.user_ids()
        np.testing.assert_array_equal(
            via_columns.lengths(), via_traces.lengths()
        )
        for trace in crowd:
            np.testing.assert_array_equal(
                via_columns.stamps_of(trace.user_id),
                via_traces.stamps_of(trace.user_id),
            )

    def test_empty_chunk_stream(self, tmp_path):
        store = TraceStore.write_columns(iter(()), tmp_path / "e")
        assert len(store) == 0
        assert store.total_posts() == 0

    def test_mismatched_lengths_refused(self, tmp_path):
        bad = [(["a", "b"], np.array([1], dtype=np.int64), np.array([1.0]))]
        with pytest.raises(DatasetError, match="lengths"):
            TraceStore.write_columns(iter(bad), tmp_path / "bad")
        assert not (tmp_path / "bad").exists()

    def test_lengths_stamps_desync_refused(self, tmp_path):
        bad = [(["a"], np.array([3], dtype=np.int64), np.array([1.0, 2.0]))]
        with pytest.raises(DatasetError, match="stamps"):
            TraceStore.write_columns(iter(bad), tmp_path / "bad")

    def test_duplicate_ids_across_chunks_refused(self, tmp_path):
        bad = [
            (["a"], np.array([1], dtype=np.int64), np.array([1.0])),
            (["a"], np.array([1], dtype=np.int64), np.array([2.0])),
        ]
        with pytest.raises(DatasetError, match="duplicate"):
            TraceStore.write_columns(iter(bad), tmp_path / "bad")


def _one_bad_stamp(bad: float) -> TraceSet:
    """User "a" holds one *bad* stamp among 41; user "b" is clean."""
    stamps = np.arange(41, dtype=float) * 3607.0
    stamps[20] = bad
    return TraceSet(
        [ActivityTrace("a", stamps), ActivityTrace("b", np.arange(40) * 3599.0)]
    )


#: SHA-256 of each file of :func:`_tiny_crowd`'s store, as the writers
#: produced it before they checked stamps.
TINY_STORE_DIGESTS = {
    "meta.json": "807252039018461b4971e8df94dde88e5067bd68dead00a508c2d5fdcf44e4ab",
    "offsets.npy": "073a18e35b575e1ac96fa61fbeaec68d0b1113a98b015cb499ca2d66f69034fb",
    "stamps.npy": "c3047466b05ebf07ecb7607f70776174299e6b44f6cd67968d1ef854c7c05b80",
    "user_ids.npy": "22360085a62c8ab78da087673d200eac87ce468b211f05d539a3d0cba199ffb2",
}


def _tiny_crowd() -> TraceSet:
    return TraceSet(
        ActivityTrace(
            f"u{i}", [day * 86400.0 + i * 3600.0 + 0.25 for day in range(i + 1)]
        )
        for i in range(5)
    )


def _file_bytes(path) -> dict[str, bytes]:
    return {child.name: child.read_bytes() for child in sorted(path.iterdir())}


class TestStampRuleOnWrite:
    """The writers refuse, before spooling, a stamp the intake rule refuses."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e30])
    def test_refused_write_leaves_nothing(self, tmp_path, bad):
        with pytest.raises(DatasetError, match="'a'"):
            TraceStore.write(_one_bad_stamp(bad), tmp_path / "s")
        assert list(tmp_path.iterdir()) == []

    def test_refused_later_chunk_leaves_nothing(self, tmp_path):
        chunks = [
            (["x"], np.array([1], dtype=np.int64), np.array([1.0])),
            (["y", "z"], np.array([1, 1], dtype=np.int64), np.array([2.0, np.nan])),
        ]
        with pytest.raises(DatasetError, match="'z'"):
            TraceStore.write_columns(iter(chunks), tmp_path / "c")
        assert list(tmp_path.iterdir()) == []

    def test_refused_write_keeps_the_existing_store(self, tmp_path):
        TraceStore.write(_crowd(3), tmp_path / "kept")
        before = _file_bytes(tmp_path / "kept")
        with pytest.raises(DatasetError, match="non-finite"):
            TraceStore.write(_one_bad_stamp(np.nan), tmp_path / "kept")
        assert [path.name for path in tmp_path.iterdir()] == ["kept"]
        assert _file_bytes(tmp_path / "kept") == before

    def test_clean_store_bytes_unchanged(self, tmp_path):
        TraceStore.write(_tiny_crowd(), tmp_path / "s")
        digests = {
            name: hashlib.sha256(data).hexdigest()
            for name, data in _file_bytes(tmp_path / "s").items()
        }
        assert digests == TINY_STORE_DIGESTS


class TestShardBoundsAndRanges:
    def test_shard_views_match_the_store(self, tmp_path):
        crowd = _crowd(23)
        TraceStore.write(crowd, tmp_path / "s")
        store = TraceStore.open(tmp_path / "s")
        for start, stop in store.shard_bounds(4):
            shard = store.shard(start, stop)
            assert list(shard.user_ids) == store.user_ids()[start:stop]
            np.testing.assert_array_equal(
                shard.lengths, store.lengths()[start:stop]
            )
            np.testing.assert_array_equal(
                shard.stamps,
                np.concatenate(
                    [crowd[user_id].timestamps for user_id in shard.user_ids]
                ),
            )

    def test_bounds_on_empty_store(self, tmp_path):
        TraceStore.write(TraceSet(), tmp_path / "s")
        store = TraceStore.open(tmp_path / "s")
        assert store.shard_bounds(4) == []


class TestConvertJsonl:
    def test_convert_preserves_every_trace(self, tmp_path):
        crowd = _crowd(15)
        jsonl = tmp_path / "crowd.jsonl"
        save_trace_set(crowd, jsonl)
        store = convert_jsonl(jsonl, tmp_path / "crowd.store")
        assert len(store) == len(crowd)
        for trace in crowd:
            np.testing.assert_array_equal(
                store.stamps_of(trace.user_id), trace.timestamps
            )

    def test_corrupt_line_names_file_and_line(self, tmp_path):
        jsonl = tmp_path / "bad.jsonl"
        jsonl.write_text(
            '{"user": "a", "timestamps": [1.0]}\nnot json\n',
            encoding="utf-8",
        )
        with pytest.raises(DatasetError, match="bad.jsonl:2"):
            convert_jsonl(jsonl, tmp_path / "bad.store")


class TestStorePipeline:
    def test_store_and_jsonl_yield_identical_placements(
        self, tmp_path, references
    ):
        crowd = _crowd(60, seed=4, posts=60)
        jsonl = tmp_path / "crowd.jsonl"
        save_trace_set(crowd, jsonl)
        store = convert_jsonl(jsonl, tmp_path / "crowd.store")
        locator = CrowdGeolocator(references)
        via_store = locator.geolocate_store(store, crowd_name="c")
        via_traces = locator.geolocate(crowd, crowd_name="c")
        assert via_store.user_zones == via_traces.user_zones
        assert via_store.placement.fractions == via_traces.placement.fractions
        assert via_store.n_users == via_traces.n_users
        assert via_store.n_posts == via_traces.n_posts
        assert via_store.n_removed_flat == via_traces.n_removed_flat
        assert via_store.mixture.zone_offsets() == via_traces.mixture.zone_offsets()

    def test_geolocate_store_empty_raises(self, tmp_path, references):
        TraceStore.write(TraceSet(), tmp_path / "s")
        store = TraceStore.open(tmp_path / "s")
        with pytest.raises(EmptyTraceError):
            CrowdGeolocator(references).geolocate_store(store)
