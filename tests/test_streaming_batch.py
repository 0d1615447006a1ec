"""Bit-identity of the bulk-ingest pipeline against the per-event loop.

The contract of the vectorised intake path (``observe_batch``,
``observe_events`` routing, ``ingest_store``): for the same event order
the engine lands in *exactly* the state the per-event ``observe()`` loop
produces -- same counts, same dirty set, same ``min_posts`` promotions,
same drift migrations in the same order, same snapshots and checkpoints.
The property tests here drive random interleavings of all the intake
APIs, with snapshots and checkpoint round-trips mixed in, against a
per-event oracle; the deterministic tests replay the relocation drift
scenario under several chunkings.

Timestamps stay non-negative: the kernels clip the hour bin to 23 where
``observe()`` relies on ``ts % 86400`` landing in range, and the
two disagree only for a timestamp within one float64 ulp below a
*negative* day boundary -- a pathology real traces cannot produce.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.drift import DriftConfig
from repro.core import streaming as streaming_module
from repro.core.events import ActivityTrace, PostEvent
from repro.core.streaming import BATCH_OBSERVE_THRESHOLD, StreamingGeolocator, _UserTable
from repro.datasets.store import TraceStore
from repro.errors import CorruptTraceError
from repro.reliability.clocks import frozen_wall_clock
from repro.synth.drift import build_relocation_scenario

#: Migration events stamp ``wall_time`` from the wall-clock seam;
#: freezing it makes event logs comparable across engines.
FROZEN_WALL = 1.7e9


@pytest.fixture(autouse=True)
def _frozen_wall():
    with frozen_wall_clock(FROZEN_WALL):
        yield

#: Small thresholds so the drift lifecycle actually fires on the few
#: hundred events a property-test example feeds.
SMALL_DRIFT = DriftConfig(
    window_days=12,
    check_interval_days=2,
    min_window_cells=4,
    min_reestimate_cells=6,
    min_history_cells=8,
)


#: Plan ops applied to both sides between segments.
BETWEEN_OPS = ("snapshot", "roundtrip", "roundtrip_binary")


def make_engine(drift: DriftConfig | None) -> StreamingGeolocator:
    return StreamingGeolocator(min_posts=3, drift=drift)


def feed_per_event(engine: StreamingGeolocator, segment) -> None:
    for user_id, timestamp in segment:
        engine.observe(user_id, timestamp)


def assert_identical(
    oracle: StreamingGeolocator, engine: StreamingGeolocator
) -> None:
    """Full-state equality, including what snapshot() would drain."""
    assert set(engine._dirty) == set(oracle._dirty)
    assert set(engine._pending_refine) == set(oracle._pending_refine)
    assert engine._stream_day == oracle._stream_day
    assert engine.state_dict() == oracle.state_dict()
    meta_a, arrays_a = oracle.binary_state()
    meta_b, arrays_b = engine.binary_state()
    assert meta_b == meta_a
    assert set(arrays_b) == set(arrays_a)
    for key in arrays_a:
        assert np.array_equal(arrays_b[key], arrays_a[key]), key
    assert [event.to_dict() for event in engine.migrations] == [
        event.to_dict() for event in oracle.migrations
    ]
    expected = oracle.snapshot()
    actual = engine.snapshot()
    assert actual.n_events_seen == expected.n_events_seen
    assert actual.n_users_seen == expected.n_users_seen
    assert actual.n_users_active == expected.n_users_active
    assert actual.mixture == expected.mixture
    assert actual.placement == expected.placement
    assert (actual.confidence is None) == (expected.confidence is None)
    if expected.confidence is not None:
        for field in ("n_tracked", "n_stale", "threshold", "mean", "minimum"):
            left = getattr(actual.confidence, field)
            right = getattr(expected.confidence, field)
            # NaN summaries (no tracked users yet) must still compare equal.
            assert left == right or (np.isnan(left) and np.isnan(right))


@st.composite
def ingest_plans(draw):
    """A random event sequence cut into segments with a method each.

    Every segment is fed to the oracle per event and to the engine via
    the segment's API; between segments both sides may snapshot or
    round-trip through a JSON or columnar checkpoint.  Events are either
    shuffled or in chronological order, as a live stream delivers them.
    """
    n_users = draw(st.integers(min_value=1, max_value=5))
    n_events = draw(st.integers(min_value=0, max_value=140))
    events = [
        (
            f"u{draw(st.integers(min_value=0, max_value=n_users - 1))}",
            float(
                draw(st.integers(min_value=0, max_value=40)) * 86400
                + draw(st.integers(min_value=0, max_value=86399))
            ),
        )
        for _ in range(n_events)
    ]
    if draw(st.booleans()):
        events.sort(key=lambda event: event[1])
    plan = []
    cursor = 0
    while cursor < len(events):
        length = draw(st.integers(min_value=1, max_value=40))
        segment = events[cursor : cursor + length]
        cursor += length
        method = draw(
            st.sampled_from(["observe", "events", "batch", "batch_ndarray"])
        )
        plan.append((method, segment))
        between = draw(st.sampled_from(("none",) + BETWEEN_OPS))
        if between != "none":
            plan.append((between, ()))
    return plan


def apply_bulk(engine: StreamingGeolocator, op: str, segment):
    """Run one plan op through the engine's bulk-facing surface."""
    if op == "observe":
        feed_per_event(engine, segment)
    elif op == "events":
        engine.observe_events(
            [PostEvent(timestamp, user_id) for user_id, timestamp in segment]
        )
    elif op == "batch":
        engine.observe_batch(
            [user_id for user_id, _ in segment],
            [timestamp for _, timestamp in segment],
        )
    elif op == "batch_ndarray":
        engine.observe_batch(
            np.asarray([user_id for user_id, _ in segment]),
            np.asarray([timestamp for _, timestamp in segment]),
        )
    elif op == "snapshot":
        engine.snapshot()
    elif op == "roundtrip":
        engine = StreamingGeolocator.from_state_dict(engine.state_dict())
    elif op == "roundtrip_binary":
        engine = StreamingGeolocator.from_binary_state(*engine.binary_state())
    else:  # pragma: no cover - strategy bug
        raise AssertionError(op)
    return engine


class TestObserveBatchProperty:
    @pytest.mark.parametrize("drift", [None, SMALL_DRIFT], ids=["plain", "drift"])
    @settings(max_examples=30, deadline=None)
    @given(plan=ingest_plans())
    def test_interleaved_apis_match_per_event_oracle(self, drift, plan):
        oracle = make_engine(drift)
        engine = make_engine(drift)
        for op, segment in plan:
            if op in BETWEEN_OPS:
                oracle = apply_bulk(oracle, op, segment)
            else:
                feed_per_event(oracle, segment)
            engine = apply_bulk(engine, op, segment)
        assert_identical(oracle, engine)

    @settings(max_examples=15, deadline=None)
    @given(
        posts=st.lists(
            st.integers(min_value=0, max_value=30), min_size=1, max_size=5
        ),
        max_posts=st.integers(min_value=1, max_value=80),
        use_drift=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_ingest_store_matches_store_order_oracle(
        self, posts, max_posts, use_drift, seed
    ):
        rng = np.random.default_rng(seed)
        traces = [
            ActivityTrace(
                f"u{index}",
                np.sort(rng.uniform(0.0, 40 * 86400.0, size=count)),
            )
            for index, count in enumerate(posts)
            if count
        ]
        if not traces:
            return
        drift = SMALL_DRIFT if use_drift else None
        tmp = Path(tempfile.mkdtemp(prefix="ingest-store-"))
        try:
            store = TraceStore.write(traces, tmp / "crowd.store")
            oracle = make_engine(drift)
            for ids, lengths, stamps in store.iter_column_chunks(
                max_posts=max_posts
            ):
                cursor = 0
                for user_id, count in zip(ids, lengths):
                    for timestamp in stamps[cursor : cursor + int(count)]:
                        oracle.observe(user_id, timestamp)
                    cursor += int(count)
            engine = make_engine(drift)
            n = engine.ingest_store(store, max_posts=max_posts)
            assert n == sum(len(trace) for trace in traces)
            assert_identical(oracle, engine)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


class TestTableScale:
    """Thousands of users: the user table's growth steps, whole-chunk
    merges at size, cell-arena compaction, and per-event rows mixed with
    bulk-built ones, against the per-event oracle."""

    @staticmethod
    def _round_trip(engine: StreamingGeolocator, path: Path) -> StreamingGeolocator:
        engine.save_checkpoint(path)
        return StreamingGeolocator.load_checkpoint(path)

    @pytest.mark.parametrize("drift", [None, SMALL_DRIFT], ids=["plain", "drift"])
    def test_mixed_intake_matches_per_event_oracle(self, drift, tmp_path):
        rng = np.random.default_rng(20261017)

        def chunk(n_events, low, high):
            users = rng.integers(low, high, size=n_events).tolist()
            stamps = rng.uniform(0.0, 60 * 86400.0, size=n_events).tolist()
            return [(f"u{user}", stamp) for user, stamp in zip(users, stamps)]

        traces = [
            ActivityTrace(
                f"u{user}",
                rng.uniform(0.0, 40 * 86400.0, size=int(rng.integers(1, 12))),
            )
            for user in range(2000)
        ]
        store = TraceStore.write(traces, tmp_path / "crowd.store")
        oracle = make_engine(drift)
        for ids, lengths, stamps in store.iter_column_chunks(max_posts=1500):
            owners = np.repeat(np.arange(len(ids)), lengths).tolist()
            feed_per_event(oracle, [(ids[i], t) for i, t in zip(owners, stamps)])
        engine = make_engine(drift)
        engine.ingest_store(store, max_posts=1500)
        assert engine.n_users() == 2000
        # Bulk merges into ~1900 bulk-built rows, plus 500 new users.
        segment = chunk(6000, 0, 2500)
        feed_per_event(oracle, segment)
        apply_bulk(engine, "batch", segment)
        assert_identical(oracle, engine)
        # Per-event posts turn some bulk-built rows set-backed.
        segment = chunk(400, 0, 300)
        feed_per_event(oracle, segment)
        feed_per_event(engine, segment)
        oracle = self._round_trip(oracle, tmp_path / "oracle.npz")
        engine = self._round_trip(engine, tmp_path / "engine.npz")
        for low, high in ((0, 3000), (1000, 3000), (0, 300)):
            segment = chunk(5000, low, high)
            feed_per_event(oracle, segment)
            apply_bulk(engine, "batch_ndarray", segment)
            segment = chunk(200, 0, 3000)
            feed_per_event(oracle, segment)
            feed_per_event(engine, segment)
        oracle = self._round_trip(oracle, tmp_path / "oracle.json")
        engine = self._round_trip(engine, tmp_path / "engine.json")
        segment = chunk(3000, 0, 3200)
        feed_per_event(oracle, segment)
        apply_bulk(engine, "events", segment)
        assert engine.n_users() == oracle.n_users() > 3000
        assert_identical(oracle, engine)
        warm, cold = engine.snapshot(), engine.snapshot_reference()
        assert warm.n_users_active == cold.n_users_active > 0
        assert warm.placement == cold.placement
        assert warm.mixture == cold.mixture

    @pytest.mark.parametrize("restored", [False, True], ids=["bulk", "restored"])
    def test_cell_range_overflow_merges_row_by_row(self, restored, monkeypatch):
        # When the whole-chunk merge's ``row * span + cell`` keys could
        # overflow int64 -- millions of rows whose cells span the stamp
        # rule's whole range -- each row of the chunk is merged on its own
        # instead.  The key limit is lowered so that forty users whose
        # posts lie a century apart take that path.
        monkeypatch.setattr(streaming_module, "_KEY_LIMIT", 2**20)
        rng = np.random.default_rng(1022)
        users = [f"u{index}" for index in range(40)]
        early = [
            (user, stamp)
            for user in users
            for stamp in rng.uniform(0.0, 30 * 86400.0, size=5).tolist()
        ]
        late = [
            (user, stamp)
            for user in users
            for stamp in (3.2e9 + rng.uniform(0.0, 1e8, size=4)).tolist()
        ]
        rng.shuffle(late)
        oracle = make_engine(None)
        engine = make_engine(None)
        feed_per_event(oracle, early)
        apply_bulk(engine, "batch", early)
        if restored:
            oracle = apply_bulk(oracle, "roundtrip_binary", ())
            engine = apply_bulk(engine, "roundtrip_binary", ())
        merged_alone = []
        merge_set = _UserTable.merge_set

        def spy(table, row, seg):
            merged_alone.append(row)
            return merge_set(table, row, seg)

        monkeypatch.setattr(_UserTable, "merge_set", spy)
        feed_per_event(oracle, late)
        apply_bulk(engine, "batch", late)
        assert sorted(merged_alone) == list(range(len(users)))
        assert_identical(oracle, engine)


@pytest.mark.drift
class TestRelocationChunked:
    """The acceptance scenario, bit-identical under every chunking."""

    def test_chunked_replay_matches_per_event(self):
        scenario = build_relocation_scenario(seed=42)
        events = scenario.sorted_events()
        oracle = StreamingGeolocator(drift=DriftConfig())
        for timestamp, user_id in events:
            oracle.observe(user_id, timestamp)
        assert oracle.migrations, "scenario must actually fire migrations"
        reference_state = oracle.state_dict()
        reference_log = [event.to_dict() for event in oracle.migrations]
        for chunk in (13, 4096, len(events)):
            engine = StreamingGeolocator(drift=DriftConfig())
            for low in range(0, len(events), chunk):
                segment = events[low : low + chunk]
                engine.observe_batch(
                    [user_id for _, user_id in segment],
                    [timestamp for timestamp, _ in segment],
                )
            assert [e.to_dict() for e in engine.migrations] == reference_log
            assert engine.state_dict() == reference_state


class TestBatchSurface:
    def test_observe_events_routes_sized_inputs_through_batch(self):
        engine = StreamingGeolocator(min_posts=3)
        calls = []
        bulk = engine.observe_batch

        def spy(user_ids, timestamps):
            calls.append(len(user_ids))
            return bulk(user_ids, timestamps)

        engine.observe_batch = spy
        events = [
            PostEvent(float(i) * 3600.0, f"u{i % 7}")
            for i in range(BATCH_OBSERVE_THRESHOLD)
        ]
        engine.observe_events(events)
        assert calls == [BATCH_OBSERVE_THRESHOLD]
        # Generators have no len() and keep the serial loop.
        engine.observe_events(iter(events))
        assert calls == [BATCH_OBSERVE_THRESHOLD]
        # Small sized inputs stay serial too.
        engine.observe_events(events[:8])
        assert calls == [BATCH_OBSERVE_THRESHOLD]
        assert engine.n_events == 2 * len(events) + 8

    def test_serial_and_batch_routes_agree(self):
        events = [
            PostEvent(float(i) * 7013.0, f"u{i % 5}")
            for i in range(BATCH_OBSERVE_THRESHOLD + 17)
        ]
        serial = StreamingGeolocator(min_posts=3)
        for event in events:
            serial.observe(event.user_id, event.timestamp)
        routed = StreamingGeolocator(min_posts=3)
        routed.observe_events(events)
        assert routed.state_dict() == serial.state_dict()

    def test_empty_batch_is_a_noop(self):
        engine = StreamingGeolocator()
        assert engine.observe_batch([], []) == 0
        assert engine.n_events == 0
        assert engine.n_users() == 0

    def test_length_mismatch_rejected(self):
        engine = StreamingGeolocator()
        with pytest.raises(ValueError, match="disagree"):
            engine.observe_batch(["a", "b"], [1.0])

    def test_non_1d_timestamps_rejected(self):
        engine = StreamingGeolocator()
        with pytest.raises(ValueError, match="1-D"):
            engine.observe_batch(["a"], np.zeros((1, 1)))

    def test_ndarray_ids_match_list_ids(self):
        user_ids = ["zeta", "alpha", "zeta", "mid", "alpha", "zeta"]
        stamps = [3600.0 * i for i in range(6)]
        from_list = StreamingGeolocator(min_posts=2)
        from_list.observe_batch(user_ids, stamps)
        from_array = StreamingGeolocator(min_posts=2)
        from_array.observe_batch(np.asarray(user_ids), np.asarray(stamps))
        assert from_array.state_dict() == from_list.state_dict()
        # First-appearance order, not lexicographic order.
        assert list(from_array.state_dict()["users"]) == ["zeta", "alpha", "mid"]

    def test_merged_chunk_advances_stream_clock(self):
        """A chunk merged without replay still moves the stream day."""
        per_event = make_engine(SMALL_DRIFT)
        per_event.observe("x", 0.0)
        per_event.observe("x", 86400.0)
        engine = make_engine(SMALL_DRIFT)
        engine.observe("x", 0.0)
        # Checked at day 0, so day 1 is inside the check interval and the
        # chunk is merged rather than replayed through observe().
        engine.observe_batch(["x"], [86400.0])
        assert per_event.heartbeat()["stream_day"] == 1
        assert engine.heartbeat()["stream_day"] == 1
        assert_identical(per_event, engine)


class TestStampJustBeforeMidnight:
    """A stamp whose day remainder rounds up to 86400 s is hour 23.

    ``observe()`` clips the hour as ``split_day_hours`` does, so per-event
    and bulk intake file the post in the same cell of the previous day.
    """

    @pytest.mark.parametrize("drift", [None, SMALL_DRIFT], ids=["plain", "drift"])
    @pytest.mark.parametrize(
        "stamp",
        [-1e-13]
        + [float(np.nextafter(-86400.0 * k, -np.inf)) for k in (0, 1, 3)],
    )
    def test_observe_and_observe_batch_agree(self, stamp, drift):
        per_event = make_engine(drift)
        per_event.observe("u", stamp)
        bulk = make_engine(drift)
        bulk.observe_batch(["u"], np.asarray([stamp]))
        ((day, hour),) = per_event.state_dict()["users"]["u"]["cells"]
        assert hour == 23
        assert day == int(stamp // 86400.0)
        assert_identical(per_event, bulk)


class TestNonFiniteTimestamps:
    """Every intake refuses the stamps the intake rule refuses (NaN, inf,
    2**40 hours or more from the epoch) before touching any state."""

    @staticmethod
    def _engine() -> StreamingGeolocator:
        engine = make_engine(SMALL_DRIFT)
        engine.observe("a", 3600.0)
        return engine

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e30])
    def test_observe_refuses_like_the_bulk_path(self, bad):
        engine = self._engine()
        meta, arrays = engine.binary_state()
        feeds = (
            lambda: engine.observe("z", bad),
            lambda: engine.observe("a", bad),
            lambda: engine.observe_batch(["z"], [bad]),
            lambda: engine.observe_batch(["a"], [bad]),
        )
        for feed in feeds:
            with pytest.raises(CorruptTraceError, match="'[az]'"):
                feed()
            meta_after, arrays_after = engine.binary_state()
            assert meta_after == meta
            assert arrays_after.keys() == arrays.keys()
            for key in arrays:
                assert np.array_equal(arrays_after[key], arrays[key]), key
        assert engine.n_users() == 1 and engine.n_events == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e30])
    def test_observe_batch_rejects_without_ingesting(self, bad):
        engine = self._engine()
        before = engine.state_dict()
        with pytest.raises(CorruptTraceError, match="'b'"):
            engine.observe_batch(["a", "b", "c"], [7200.0, bad, 3600.0])
        assert engine.n_users() == 1
        assert engine.n_events == 1
        assert engine.state_dict() == before

    def test_ingest_store_rejects_without_ingesting(self, tmp_path):
        # The store writers refuse a NaN, so it is planted in the written
        # column, as in a store damaged on disk.
        TraceStore.write_columns(
            [(["b", "c"], np.array([2, 1]), np.array([3600.0, 5400.0, 7200.0]))],
            tmp_path / "bad.store",
        )
        column = np.load(tmp_path / "bad.store" / "stamps.npy", mmap_mode="r+")
        column[1] = np.nan
        column.flush()
        del column
        store = TraceStore.open(tmp_path / "bad.store")
        engine = self._engine()
        before = engine.state_dict()
        with pytest.raises(CorruptTraceError, match="'b'"):
            engine.ingest_store(store)
        assert engine.n_users() == 1
        assert engine.n_events == 1
        assert engine.state_dict() == before
