"""One stamp rule at every intake.

A stamp is admitted when it is finite and less than 2**40 hours from the
epoch (``repro.core.kernels.valid_stamps``), the range in which the Eq. 1
cell encoder is exact.  Each intake -- trace validation and quarantine,
the streaming engine's per-event and bulk paths, the trace-store writers
and the JSONL format -- must refuse the same out-of-range stamp instead
of filing it at a wrapped cell.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

import repro.core.shard as shard_module
from repro.core.batch import ProfileMatrix
from repro.core.events import ActivityTrace, TraceSet
from repro.core.geolocate import CrowdGeolocator
from repro.core.kernels import MAX_ABS_STAMP_S, valid_stamps
from repro.core.profiles import active_hour_counts, build_user_profile
from repro.core.streaming import StreamingGeolocator
from repro.datasets.store import TraceStore, convert_jsonl
from repro.datasets.traces import load_trace_set, save_trace_set
from repro.errors import CorruptTraceError, DatasetError
from repro.reliability.quality import (
    REASON_OUT_OF_RANGE,
    partition_trace_set,
    trace_fault,
)

#: The largest stamp the rule admits.
LARGEST = float(np.nextafter(MAX_ABS_STAMP_S, 0.0))


def test_the_rule_bounds():
    assert valid_stamps(0.0) and valid_stamps(LARGEST) and valid_stamps(-LARGEST)
    for bad in (MAX_ABS_STAMP_S, -MAX_ABS_STAMP_S, 1e30, np.nan, np.inf, -np.inf):
        assert not valid_stamps(bad)
    np.testing.assert_array_equal(
        valid_stamps(np.array([LARGEST, 1e30, 0.0, np.nan])),
        [True, False, True, False],
    )


def _crowd(bad: float) -> TraceSet:
    """Twelve clean diurnal users and "a", one of whose 40 stamps is *bad*."""
    rng = np.random.default_rng(7)
    traces = [
        ActivityTrace(
            f"u{index:02d}",
            rng.integers(0, 60, 40) * 86400.0 + rng.normal(15.0, 2.0, 40) % 24 * 3600.0,
        )
        for index in range(12)
    ]
    stamps = np.arange(40, dtype=float) * 3607.0
    stamps[17] = bad
    return TraceSet(traces + [ActivityTrace("a", stamps)])


@pytest.mark.parametrize("bad", [1e30, -1e30, MAX_ABS_STAMP_S])
def test_every_intake_refuses_the_same_out_of_range_stamp(bad, tmp_path):
    crowd = _crowd(bad)
    locator = CrowdGeolocator(min_posts=10)

    assert trace_fault(crowd["a"]) == REASON_OUT_OF_RANGE
    healthy, quality = partition_trace_set(crowd)
    assert "a" not in healthy and quality.reason_for("a") == REASON_OUT_OF_RANGE
    with pytest.raises(CorruptTraceError, match=r"a \(out-of-range-timestamps\)"):
        locator.geolocate(crowd)
    report = locator.geolocate(crowd, quarantine=True)
    assert report.data_quality.reason_for("a") == REASON_OUT_OF_RANGE
    assert "a" not in report.user_zones

    engine = StreamingGeolocator()
    with pytest.raises(CorruptTraceError, match="'a' has an out-of-range"):
        engine.observe("a", bad)
    with pytest.raises(CorruptTraceError, match="'a' has an out-of-range"):
        engine.observe_batch(["a", "b"], [bad, 5.0])
    assert engine.n_users() == 0 and engine.n_events == 0

    with pytest.raises(DatasetError, match="'a': out-of-range"):
        TraceStore.write(crowd, tmp_path / "s")
    chunk = (["a"], np.array([2], dtype=np.int64), np.array([0.0, bad]))
    with pytest.raises(DatasetError, match="'a': out-of-range"):
        TraceStore.write_columns([chunk], tmp_path / "c")

    with pytest.raises(DatasetError, match="'a': out-of-range"):
        save_trace_set(crowd, tmp_path / "t.jsonl")
    line = json.dumps({"user": "a", "timestamps": [0.0, bad]})
    (tmp_path / "t.jsonl").write_text(line + "\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="'a': out-of-range"):
        load_trace_set(tmp_path / "t.jsonl")
    with pytest.raises(DatasetError, match="'a': out-of-range"):
        convert_jsonl(tmp_path / "t.jsonl", tmp_path / "j")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["t.jsonl"]


def test_the_largest_admitted_stamp_passes_every_intake(tmp_path):
    crowd = _crowd(LARGEST)
    report = CrowdGeolocator(min_posts=10).geolocate(crowd)
    assert report.n_users + report.n_removed_flat == len(crowd)
    engine = StreamingGeolocator()
    engine.observe("a", LARGEST)
    engine.observe_batch(["a", "b"], [-LARGEST, 5.0])
    assert engine.n_events == 3
    store = TraceStore.write(crowd, tmp_path / "s")
    assert store.stamps_of("a")[-1] == LARGEST
    save_trace_set(crowd, tmp_path / "t.jsonl")
    assert load_trace_set(tmp_path / "t.jsonl")["a"].timestamps[-1] == LARGEST


@pytest.mark.parametrize("bad", [np.nan, 1e30])
@pytest.mark.parametrize("n_shards, max_workers", [(None, 1), (8, 1), (8, 2)])
def test_a_damaged_store_is_refused_by_every_store_path(
    bad, n_shards, max_workers, tmp_path, monkeypatch
):
    """A bad stamp planted in a written column, as on a damaged disk."""
    monkeypatch.setattr(shard_module, "_usable_cores", lambda: 4)
    TraceStore.write(_crowd(0.0), tmp_path / "s")
    column = np.load(tmp_path / "s" / "stamps.npy", mmap_mode="r+")
    column[-1] = bad  # the last stamp of "a", the last user
    column.flush()
    del column
    store = TraceStore.open(tmp_path / "s")
    locator = CrowdGeolocator(min_posts=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CorruptTraceError):
            locator.geolocate_store(store, n_shards=n_shards, max_workers=max_workers)
        with pytest.raises(CorruptTraceError):
            ProfileMatrix.from_store(store)
        with pytest.raises(CorruptTraceError):
            locator.geolocate(store.to_trace_set())


@pytest.mark.parametrize("bad", [np.nan, 1e30])
@pytest.mark.parametrize("n_shards, max_workers", [(None, 1), (8, 1), (8, 2)])
def test_a_damaged_stamp_below_the_threshold_is_refused_too(
    bad, n_shards, max_workers, tmp_path, monkeypatch
):
    """The threshold drops "b" (2 posts) before the Eq. 1 kernel runs, so
    only the store's own check sees the stamp planted in its segment."""
    monkeypatch.setattr(shard_module, "_usable_cores", lambda: 4)
    crowd = TraceSet([*_crowd(0.0), ActivityTrace("b", [3600.0, 7200.0])])
    TraceStore.write(crowd, tmp_path / "s")
    column = np.load(tmp_path / "s" / "stamps.npy", mmap_mode="r+")
    column[-1] = bad  # the last stamp of "b", the last user
    column.flush()
    del column
    store = TraceStore.open(tmp_path / "s")
    locator = CrowdGeolocator(min_posts=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CorruptTraceError, match="user 'b'"):
            locator.geolocate_store(store, n_shards=n_shards, max_workers=max_workers)
        with pytest.raises(CorruptTraceError, match="user 'b'"):
            ProfileMatrix.from_store(store, min_posts=10)
        with pytest.raises(CorruptTraceError):
            locator.geolocate(store.to_trace_set())


@pytest.mark.parametrize("bad", [1e30, np.nan, np.inf])
def test_the_per_user_builders_refuse_what_the_rule_refuses(bad):
    trace = ActivityTrace("a", [bad, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CorruptTraceError):
            build_user_profile(trace)
        with pytest.raises(CorruptTraceError):
            active_hour_counts(trace.timestamps)
