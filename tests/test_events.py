"""Activity traces and trace sets."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.events import ActivityTrace, PostEvent, TraceSet
from repro.errors import EmptyTraceError
from repro.timebase.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR, make_timestamp


def _trace(user="alice", hours=(9, 21), days=range(10)):
    stamps = [
        day * SECONDS_PER_DAY + hour * SECONDS_PER_HOUR
        for day in days
        for hour in hours
    ]
    return ActivityTrace(user, stamps)


class TestPostEvent:
    def test_day_and_hour(self):
        event = PostEvent(make_timestamp(2016, 1, 2, hour=5), "u")
        assert event.day() == 1
        assert event.hour() == 5

    def test_offset_aware(self):
        event = PostEvent(make_timestamp(2016, 1, 1, hour=23), "u")
        assert event.hour(offset_hours=3) == 2
        assert event.day(offset_hours=3) == 1

    def test_hour_just_before_midnight(self):
        """A tiny negative stamp is hour 23 of day -1, never hour 24."""
        event = PostEvent(-1e-13, "u")
        assert (event.day(), event.hour()) == (-1, 23)

    def test_ordering_by_time(self):
        early = PostEvent(10.0, "b")
        late = PostEvent(20.0, "a")
        assert early < late


class TestActivityTrace:
    def test_sorted_on_construction(self):
        trace = ActivityTrace("u", [30.0, 10.0, 20.0])
        assert list(trace.timestamps) == [10.0, 20.0, 30.0]

    def test_timestamps_read_only(self):
        trace = _trace()
        with pytest.raises(ValueError):
            trace.timestamps[0] = 0.0

    def test_len_and_iter(self):
        trace = _trace(days=range(3))
        assert len(trace) == 6
        events = list(trace)
        assert all(isinstance(event, PostEvent) for event in events)
        assert events[0].user_id == "alice"

    def test_span_days(self):
        assert _trace(days=range(10)).span_days() == 10

    def test_span_days_empty(self):
        assert ActivityTrace("u").span_days() == 0

    def test_shifted(self):
        trace = _trace(hours=(10,), days=(0,))
        shifted = trace.shifted(2.0)
        assert shifted.timestamps[0] == trace.timestamps[0] + 2 * SECONDS_PER_HOUR
        assert shifted.user_id == "alice"

    def test_restricted_to_days(self):
        trace = _trace(hours=(12,), days=range(10))
        evens = trace.restricted_to_days(lambda day: day % 2 == 0)
        assert len(evens) == 5

    def test_restricted_empty_trace(self):
        empty = ActivityTrace("u")
        assert empty.restricted_to_days(lambda day: True).is_empty()

    def test_merge_same_user(self):
        merged = _trace(days=(0,)).merged_with(_trace(days=(1,)))
        assert len(merged) == 4

    def test_merge_different_user_rejected(self):
        with pytest.raises(ValueError):
            _trace(user="a").merged_with(_trace(user="b"))

    def test_active_day_hours_dedupes(self):
        # Three posts in the same hour of the same day count once.
        base = 5 * SECONDS_PER_DAY + 9 * SECONDS_PER_HOUR
        trace = ActivityTrace("u", [base, base + 60, base + 120])
        assert trace.active_day_hours() == {(5, 9)}

    def test_active_day_hours_offset(self):
        trace = ActivityTrace("u", [23 * SECONDS_PER_HOUR])
        assert trace.active_day_hours(offset_hours=2) == {(1, 1)}

    @given(
        st.lists(
            st.floats(0, 365 * SECONDS_PER_DAY, allow_nan=False), min_size=1, max_size=50
        )
    )
    def test_active_cells_never_exceed_posts(self, stamps):
        trace = ActivityTrace("u", stamps)
        assert 1 <= len(trace.active_day_hours()) <= len(trace)


class TestTraceSet:
    def test_add_merges_duplicates(self):
        traces = TraceSet([_trace(days=(0,)), _trace(days=(1,))])
        assert len(traces) == 1
        assert len(traces["alice"]) == 4

    def test_from_events(self):
        events = [PostEvent(1.0, "a"), PostEvent(2.0, "b"), PostEvent(3.0, "a")]
        traces = TraceSet.from_events(events)
        assert len(traces) == 2
        assert len(traces["a"]) == 2

    def test_getitem_missing(self):
        with pytest.raises(EmptyTraceError):
            TraceSet()["ghost"]

    def test_contains(self):
        traces = TraceSet([_trace()])
        assert "alice" in traces
        assert "bob" not in traces

    def test_columns(self):
        traces = TraceSet(
            [
                ActivityTrace("b", [30.0, 10.0]),
                ActivityTrace("empty"),
                ActivityTrace("a", [5.0]),
            ]
        )
        user_ids, lengths, stamps = traces.columns()
        assert user_ids == ["b", "empty", "a"]
        assert lengths.dtype == np.int64 and lengths.tolist() == [2, 0, 1]
        assert stamps.dtype == np.float64 and stamps.tolist() == [10.0, 30.0, 5.0]
        stamps[0] = -1.0  # a fresh concatenation, not a view of a trace
        assert traces["b"].timestamps[0] == 10.0

    def test_columns_of_empty_set(self):
        user_ids, lengths, stamps = TraceSet().columns()
        assert user_ids == [] and lengths.shape == (0,) and stamps.shape == (0,)
        assert stamps.dtype == np.float64

    def test_total_posts(self):
        traces = TraceSet([_trace(user="a", days=range(3)), _trace(user="b", days=range(2))])
        assert traces.total_posts() == 10

    def test_with_min_posts(self):
        traces = TraceSet(
            [_trace(user="busy", days=range(20)), _trace(user="quiet", days=range(2))]
        )
        active = traces.with_min_posts(30)
        assert active.user_ids() == ["busy"]

    def test_without_users(self):
        traces = TraceSet([_trace(user="a"), _trace(user="b")])
        assert traces.without_users(["a"]).user_ids() == ["b"]

    def test_shifted_applies_to_all(self):
        traces = TraceSet([_trace(user="a", hours=(10,), days=(0,))])
        shifted = traces.shifted(-3.0)
        assert shifted["a"].timestamps[0] == 7 * SECONDS_PER_HOUR

    def test_most_active_ordering(self):
        traces = TraceSet(
            [
                _trace(user="small", days=range(1)),
                _trace(user="big", days=range(9)),
                _trace(user="mid", days=range(4)),
            ]
        )
        ranked = traces.most_active(2)
        assert [trace.user_id for trace in ranked] == ["big", "mid"]

    def test_most_active_ties_break_by_name(self):
        traces = TraceSet([_trace(user="b"), _trace(user="a")])
        ranked = traces.most_active(2)
        assert [trace.user_id for trace in ranked] == ["a", "b"]

    def test_filter_users(self):
        traces = TraceSet([_trace(user="keep"), _trace(user="drop")])
        kept = traces.filter_users(lambda trace: trace.user_id == "keep")
        assert kept.user_ids() == ["keep"]

    def test_as_mapping_is_copy(self):
        traces = TraceSet([_trace()])
        mapping = traces.as_mapping()
        assert set(mapping) == {"alice"}
