"""Checkpoint/resume: atomic JSON envelopes and state round-trips."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from checkpoint_fixtures import FIXTURE_DIR, RENDERINGS, snapshot_record
from repro.core.streaming import StreamingGeolocator
from repro.errors import CheckpointError
from repro.forum.engine import ForumServer
from repro.forum.monitor import ForumMonitor
from repro.reliability.checkpoint import read_checkpoint, write_checkpoint
from repro.synth.twitter import build_region_crowd

pytestmark = pytest.mark.reliability

DAY = 86400.0
HOUR = 3600.0


class TestCheckpointEnvelope:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ck.json"
        write_checkpoint(path, "demo", 2, {"a": [1, 2], "b": "x"})
        assert read_checkpoint(path, "demo", 2) == {"a": [1, 2], "b": "x"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            read_checkpoint(tmp_path / "absent.json", "demo", 1)

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text('{"kind": "demo", "ver', encoding="utf-8")
        with pytest.raises(CheckpointError):
            read_checkpoint(path, "demo", 1)

    def test_wrong_kind_refused(self, tmp_path):
        path = tmp_path / "ck.json"
        write_checkpoint(path, "monitor", 1, {})
        with pytest.raises(CheckpointError, match="kind"):
            read_checkpoint(path, "scraper", 1)

    def test_wrong_version_refused(self, tmp_path):
        path = tmp_path / "ck.json"
        write_checkpoint(path, "demo", 1, {})
        with pytest.raises(CheckpointError, match="version"):
            read_checkpoint(path, "demo", 2)

    def test_missing_envelope_refused(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"not": "an envelope"}), encoding="utf-8")
        with pytest.raises(CheckpointError):
            read_checkpoint(path, "demo", 1)

    def test_unserialisable_state_refused(self, tmp_path):
        with pytest.raises(CheckpointError):
            write_checkpoint(tmp_path / "ck.json", "demo", 1, {"f": object()})

    def test_no_tmp_file_left_behind(self, tmp_path):
        path = tmp_path / "ck.json"
        write_checkpoint(path, "demo", 1, {"a": 1})
        assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]


def _forum_with_live_posts():
    forum = ForumServer("F", "x.onion")
    forum.import_crowd_posts(
        {
            "alice": [day * DAY + 6 * HOUR for day in range(1, 11)],
            "bob": [day * DAY + 18 * HOUR for day in range(1, 11)],
        }
    )
    return forum


class TestMonitorCheckpoint:
    def test_killed_and_resumed_campaign_equals_uninterrupted(self, tmp_path):
        path = tmp_path / "monitor.json"
        forum = _forum_with_live_posts()
        # Uninterrupted baseline on an identical forum.
        baseline = ForumMonitor(_forum_with_live_posts()).run_campaign(
            0.0, 10 * DAY, HOUR
        )
        # Killed at day 5 ...
        ForumMonitor(forum).run_campaign(
            0.0, 5 * DAY, HOUR, checkpoint_path=path
        )
        # ... resumed by a fresh process from the checkpoint.
        resumed_monitor = ForumMonitor.from_checkpoint(forum, path)
        result = resumed_monitor.run_campaign(
            0.0, 10 * DAY, HOUR, checkpoint_path=path
        )
        assert set(result.traces.user_ids()) == set(baseline.traces.user_ids())
        for user in baseline.traces.user_ids():
            assert np.allclose(
                result.traces[user].timestamps,
                baseline.traces[user].timestamps,
            )
        assert result.n_polls == baseline.n_polls

    def test_resume_does_not_restamp_first_poll_backlog(self, tmp_path):
        path = tmp_path / "monitor.json"
        forum = _forum_with_live_posts()
        ForumMonitor(forum).run_campaign(
            5 * DAY, 7 * DAY, HOUR, checkpoint_path=path
        )
        resumed = ForumMonitor.from_checkpoint(forum, path)
        result = resumed.run_campaign(5 * DAY, 10 * DAY, HOUR)
        # The resumed monitor's first executed poll is NOT a "first poll":
        # it must keep stamping rather than swallowing the backlog again.
        ids = [obs.post_id for obs in result.observations]
        assert len(ids) == len(set(ids))
        stamps = result.traces["alice"].timestamps
        assert stamps.min() >= 5 * DAY  # pre-monitoring backlog stays dropped
        assert stamps.max() > 7 * DAY  # post-resume posts were stamped

    def test_checkpoint_every_reduces_write_frequency(self, tmp_path, monkeypatch):
        path = tmp_path / "monitor.json"
        writes = []
        import repro.forum.monitor as monitor_module

        original = monitor_module.write_checkpoint

        def counting(path_, kind, version, state):
            writes.append(state["n_polls"])
            return original(path_, kind, version, state)

        monkeypatch.setattr(monitor_module, "write_checkpoint", counting)
        ForumMonitor(_forum_with_live_posts()).run_campaign(
            0.0, 2 * DAY, HOUR, checkpoint_path=path, checkpoint_every=10
        )
        # 49 polls -> every-10th plus the final flush, not one per poll.
        assert len(writes) < 10

    def test_checkpoint_rejects_foreign_kind(self, tmp_path):
        path = tmp_path / "other.json"
        write_checkpoint(path, "scrape-campaign", 1, {})
        with pytest.raises(CheckpointError):
            ForumMonitor.from_checkpoint(_forum_with_live_posts(), path)


class TestStreamingCheckpoint:
    def test_round_trip_preserves_snapshot(self, references, tmp_path):
        path = tmp_path / "stream.json"
        crowd = build_region_crowd("malaysia", 40, seed=21, n_days=366)
        stream = StreamingGeolocator(references)
        for trace in crowd:
            for timestamp in trace.timestamps:
                stream.observe(trace.user_id, float(timestamp))
        stream.save_checkpoint(path)
        restored = StreamingGeolocator.load_checkpoint(path, references=references)
        assert restored.n_events == stream.n_events
        assert restored.n_users() == stream.n_users()
        before = stream.snapshot()
        after = restored.snapshot()
        assert after.has_verdict() == before.has_verdict()
        assert after.dominant_mean() == pytest.approx(before.dominant_mean())

    def test_restored_stream_keeps_ingesting(self, references, tmp_path):
        path = tmp_path / "stream.json"
        stream = StreamingGeolocator(references, min_posts=3)
        stream.observe("u", 20 * HOUR)
        stream.observe("u", DAY + 20 * HOUR)
        stream.save_checkpoint(path)
        restored = StreamingGeolocator.load_checkpoint(path)
        restored.observe("u", 2 * DAY + 20 * HOUR)
        assert restored.n_events == 3
        assert "u" in restored.active_profiles()

    def test_profiles_survive_round_trip_exactly(self, references, tmp_path):
        path = tmp_path / "stream.json"
        crowd = build_region_crowd("japan", 3, seed=5, n_days=200)
        stream = StreamingGeolocator(references, min_posts=1)
        for trace in crowd:
            for timestamp in trace.timestamps:
                stream.observe(trace.user_id, float(timestamp))
        stream.save_checkpoint(path)
        restored = StreamingGeolocator.load_checkpoint(path)
        assert restored.active_profiles() == stream.active_profiles()

    @pytest.mark.parametrize(
        "bad_cell",
        [None, [0, 24], [1, -1]],
        ids=["users-not-a-mapping", "hour-24", "hour-minus-1"],
    )
    def test_malformed_state_raises_checkpoint_error(self, tmp_path, bad_cell):
        path = tmp_path / "stream.json"
        from repro.core.streaming import (
            STREAM_CHECKPOINT_KIND,
            STREAM_CHECKPOINT_VERSION,
        )

        if bad_cell is None:
            state = {"config": {}, "users": "not-a-mapping"}
        else:
            # A valid document but for one cell whose hour is out of
            # range: [0, 24] used to raise IndexError, and [1, -1] loaded
            # as hour 23 of day 0 while max_day said day 1.
            state = StreamingGeolocator().state_dict()
            state["users"] = {"u": {"cells": [[0, 5], bad_cell], "n_posts": 2}}
        write_checkpoint(
            path, STREAM_CHECKPOINT_KIND, STREAM_CHECKPOINT_VERSION, state
        )
        with pytest.raises(CheckpointError):
            StreamingGeolocator.load_checkpoint(path)

    def test_json_keeps_user_ids_with_trailing_nul(self):
        stream = StreamingGeolocator(min_posts=1)
        stream.observe("a\x00", 20 * HOUR)
        stream.observe("b", 21 * HOUR)
        restored = StreamingGeolocator.from_state_dict(stream.state_dict())
        assert list(restored.state_dict()["users"]) == ["a\x00", "b"]
        assert restored.state_dict() == stream.state_dict()

    @pytest.mark.parametrize(
        "user_ids", [["a", "a\x00", "b"], ["x\x00"]], ids=["collision", "lone"]
    )
    def test_binary_refuses_user_ids_with_trailing_nul(self, tmp_path, user_ids):
        # numpy strings drop trailing NULs: "a\x00" would load back as "a".
        stream = StreamingGeolocator(min_posts=1)
        for i, user_id in enumerate(user_ids):
            stream.observe(user_id, 20 * HOUR + i * DAY)
        path = tmp_path / "stream.npz"
        bad = next(user_id for user_id in user_ids if user_id.endswith("\x00"))
        with pytest.raises(CheckpointError, match=re.escape(repr(bad))):
            stream.save_checkpoint(path)
        assert not path.exists()

    def test_binary_refuses_a_repeated_user_id(self, tmp_path):
        from repro.core.streaming import (
            STREAM_CHECKPOINT_KIND,
            STREAM_CHECKPOINT_VERSION,
        )
        from repro.reliability.checkpoint import write_binary_checkpoint

        stream = StreamingGeolocator(min_posts=1)
        stream.observe("a", 20 * HOUR)
        stream.observe("b", 21 * HOUR)
        meta, arrays = stream.binary_state()
        arrays["user_ids"] = np.asarray(["a", "a"])
        path = tmp_path / "stream.npz"
        write_binary_checkpoint(
            path, STREAM_CHECKPOINT_KIND, STREAM_CHECKPOINT_VERSION, meta, arrays
        )
        with pytest.raises(CheckpointError, match="repeats"):
            StreamingGeolocator.load_checkpoint(path)

    def test_json_cells_are_sorted_and_deduplicated(self):
        stream = StreamingGeolocator(min_posts=1)
        for timestamp in (DAY + 3 * HOUR, 2 * HOUR, DAY + 3.5 * HOUR):
            stream.observe("u", timestamp)
        state = stream.state_dict()
        assert state["users"]["u"]["cells"] == [[0, 2], [1, 3]]
        state["users"]["u"]["cells"] = [[1, 3], [0, 2], [1, 3]]
        restored = StreamingGeolocator.from_state_dict(state)
        assert restored.state_dict() == stream.state_dict()
        assert restored.active_profiles() == stream.active_profiles()


class TestBinaryCheckpointEnvelope:
    def _write(self, path, **overrides):
        from repro.reliability.checkpoint import write_binary_checkpoint

        kwargs = dict(
            kind="demo",
            version=1,
            meta={"alpha": 1.5},
            arrays={"xs": np.arange(5), "ys": np.eye(3)},
        )
        kwargs.update(overrides)
        write_binary_checkpoint(
            path, kwargs["kind"], kwargs["version"], kwargs["meta"], kwargs["arrays"]
        )

    def test_round_trip(self, tmp_path):
        from repro.reliability.checkpoint import read_binary_checkpoint

        path = tmp_path / "ck.npz"
        self._write(path)
        meta, arrays = read_binary_checkpoint(path, "demo", 1)
        assert meta == {"alpha": 1.5}
        np.testing.assert_array_equal(arrays["xs"], np.arange(5))
        np.testing.assert_array_equal(arrays["ys"], np.eye(3))

    def test_format_negotiation(self, tmp_path):
        from repro.reliability.checkpoint import checkpoint_format

        binary = tmp_path / "b.npz"
        self._write(binary)
        assert checkpoint_format(binary) == "binary"
        text = tmp_path / "t.json"
        write_checkpoint(text, "demo", 1, {})
        assert checkpoint_format(text) == "json"

    def test_truncated_zip_raises_checkpoint_error(self, tmp_path):
        from repro.reliability.checkpoint import read_binary_checkpoint

        path = tmp_path / "ck.npz"
        self._write(path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError):
            read_binary_checkpoint(path, "demo", 1)

    def test_garbage_bytes_raise_checkpoint_error(self, tmp_path):
        from repro.reliability.checkpoint import read_binary_checkpoint

        path = tmp_path / "ck.npz"
        path.write_bytes(b"PK\x03\x04 this is not really a zip archive")
        with pytest.raises(CheckpointError):
            read_binary_checkpoint(path, "demo", 1)

    def test_wrong_kind_and_version_refused(self, tmp_path):
        from repro.reliability.checkpoint import read_binary_checkpoint

        path = tmp_path / "ck.npz"
        self._write(path)
        with pytest.raises(CheckpointError, match="kind"):
            read_binary_checkpoint(path, "other", 1)
        with pytest.raises(CheckpointError, match="version"):
            read_binary_checkpoint(path, "demo", 2)

    def test_reserved_key_refused(self, tmp_path):
        with pytest.raises(CheckpointError, match="reserved"):
            self._write(tmp_path / "ck.npz", arrays={"__meta__": np.arange(2)})

    def test_missing_envelope_refused(self, tmp_path):
        from repro.reliability.checkpoint import read_binary_checkpoint

        path = tmp_path / "ck.npz"
        with path.open("wb") as handle:
            np.savez(handle, xs=np.arange(3))
        with pytest.raises(CheckpointError, match="envelope"):
            read_binary_checkpoint(path, "demo", 1)

    def test_atomic_no_tmp_left_behind(self, tmp_path):
        path = tmp_path / "ck.npz"
        self._write(path)
        assert [p.name for p in tmp_path.iterdir()] == ["ck.npz"]


class TestStreamingBinaryCheckpoint:
    def _stream(self, references):
        crowd = build_region_crowd("malaysia", 30, seed=21, n_days=366)
        stream = StreamingGeolocator(references)
        for trace in crowd:
            for timestamp in trace.timestamps:
                stream.observe(trace.user_id, float(timestamp))
        return stream

    def test_npz_suffix_selects_binary_format(self, references, tmp_path):
        from repro.reliability.checkpoint import checkpoint_format

        stream = self._stream(references)
        binary = tmp_path / "s.npz"
        stream.save_checkpoint(binary)
        assert checkpoint_format(binary) == "binary"
        text = tmp_path / "s.json"
        stream.save_checkpoint(text)
        assert checkpoint_format(text) == "json"

    def test_binary_round_trip_preserves_placements(self, references, tmp_path):
        stream = self._stream(references)
        path = tmp_path / "s.npz"
        stream.save_checkpoint(path)
        restored = StreamingGeolocator.load_checkpoint(path, references=references)
        before, after = stream.snapshot(), restored.snapshot()
        assert after.n_users_active == before.n_users_active
        assert after.placement == before.placement
        assert restored.active_profiles() == stream.active_profiles()

    def test_binary_and_json_checkpoints_restore_identically(
        self, references, tmp_path
    ):
        stream = self._stream(references)
        stream.save_checkpoint(tmp_path / "s.npz")
        stream.save_checkpoint(tmp_path / "s.json")
        via_npz = StreamingGeolocator.load_checkpoint(tmp_path / "s.npz")
        via_json = StreamingGeolocator.load_checkpoint(tmp_path / "s.json")
        assert via_npz.n_events == via_json.n_events
        assert via_npz.snapshot().placement == via_json.snapshot().placement
        assert via_npz.state_dict() == via_json.state_dict()

    def test_json_checkpoint_from_earlier_release_still_loads(
        self, references, tmp_path
    ):
        """A PR2-era JSON checkpoint loads into the binary-capable class."""
        from repro.core.streaming import (
            STREAM_CHECKPOINT_KIND,
            STREAM_CHECKPOINT_VERSION,
        )

        stream = self._stream(references)
        path = tmp_path / "legacy.checkpoint"
        # Written through the plain JSON envelope, as PR2 always did.
        write_checkpoint(
            path,
            STREAM_CHECKPOINT_KIND,
            STREAM_CHECKPOINT_VERSION,
            stream.state_dict(),
        )
        restored = StreamingGeolocator.load_checkpoint(path, references=references)
        assert restored.n_events == stream.n_events
        assert restored.snapshot().placement == stream.snapshot().placement

    def test_corrupt_npz_surfaces_checkpoint_error(self, references, tmp_path):
        stream = self._stream(references)
        path = tmp_path / "s.npz"
        stream.save_checkpoint(path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - len(raw) // 3])
        with pytest.raises(CheckpointError):
            StreamingGeolocator.load_checkpoint(path)

    def test_unsorted_cells_refused(self, references, tmp_path):
        from repro.core.streaming import (
            STREAM_CHECKPOINT_KIND,
            STREAM_CHECKPOINT_VERSION,
        )
        from repro.reliability.checkpoint import write_binary_checkpoint

        stream = StreamingGeolocator(references, min_posts=1)
        stream.observe("u", 20 * HOUR)
        meta, arrays = stream.binary_state()
        arrays["cells"] = np.array([5, 5], dtype=np.int64)
        arrays["cell_offsets"] = np.array([0, 2], dtype=np.int64)
        path = tmp_path / "bad.npz"
        write_binary_checkpoint(
            path, STREAM_CHECKPOINT_KIND, STREAM_CHECKPOINT_VERSION, meta, arrays
        )
        with pytest.raises(CheckpointError, match="unsorted|duplicate"):
            StreamingGeolocator.load_checkpoint(path)


class TestFrozenStreamingCheckpoints:
    """Checkpoints written by an earlier engine load exactly as they did.

    The files under ``tests/fixtures/streaming/`` come from a drift-on
    campaign with truncated records, migrations and timeline samples (see
    ``tests/checkpoint_fixtures.py``), together with the writing engine's
    ``state_dict()`` rendering and snapshot of each.
    """

    @staticmethod
    def _columns_equal(left, right):
        (meta_a, arrays_a), (meta_b, arrays_b) = left, right
        assert meta_a == meta_b
        assert set(arrays_a) == set(arrays_b)
        for key in arrays_a:
            assert np.array_equal(arrays_a[key], arrays_b[key]), key

    @pytest.mark.parametrize("name", sorted(RENDERINGS))
    def test_fixture_re_renders_byte_for_byte(self, name):
        checkpoint, drift = RENDERINGS[name]
        engine = StreamingGeolocator.load_checkpoint(
            FIXTURE_DIR / checkpoint, drift=drift
        )
        rendering = (FIXTURE_DIR / f"{name}.state.json").read_text(encoding="utf-8")
        assert json.dumps(engine.state_dict()) == rendering
        # The writer's rendering restores to the same columns.
        self._columns_equal(
            StreamingGeolocator.from_state_dict(json.loads(rendering)).binary_state(),
            engine.binary_state(),
        )
        snapshots = json.loads(
            (FIXTURE_DIR / "snapshots.json").read_text(encoding="utf-8")
        )
        assert snapshot_record(engine.snapshot()) == snapshots[name]

    def test_v2_formats_restore_the_written_columns(self):
        from repro.core.streaming import (
            STREAM_CHECKPOINT_KIND,
            STREAM_CHECKPOINT_VERSION,
        )
        from repro.reliability.checkpoint import read_binary_checkpoint

        written = read_binary_checkpoint(
            FIXTURE_DIR / "v2.npz", STREAM_CHECKPOINT_KIND, STREAM_CHECKPOINT_VERSION
        )
        for checkpoint in ("v2.json", "v2.npz"):
            engine = StreamingGeolocator.load_checkpoint(FIXTURE_DIR / checkpoint)
            self._columns_equal(engine.binary_state(), written)
            assert any(
                user["anchor_day"] is not None
                for user in engine.state_dict()["users"].values()
            ), "the fixture must hold a truncated record"
            assert len(engine.timeline) > 0
