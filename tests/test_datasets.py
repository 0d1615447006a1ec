"""Labeled datasets, filtering and serialisation."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.events import ActivityTrace, TraceSet
from repro.datasets.registry import TABLE1_ROWS, table1_rows, total_active_users
from repro.datasets.traces import (
    LabeledDataset,
    load_trace_set,
    load_trace_set_resilient,
    save_trace_set,
)
from repro.errors import DatasetError
from repro.timebase.calendar_utils import standard_holidays
from repro.timebase.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR, make_timestamp
from repro.timebase.zones import get_region


def _simple_dataset():
    german = TraceSet(
        [
            ActivityTrace(
                "hans",
                [
                    day * SECONDS_PER_DAY + 19 * SECONDS_PER_HOUR
                    for day in range(40)
                ],
            )
        ]
    )
    japanese = TraceSet(
        [ActivityTrace("yuki", [day * SECONDS_PER_DAY + 11 * SECONDS_PER_HOUR for day in range(40)])]
    )
    return LabeledDataset({"germany": german, "japan": japanese})


class TestRegistry:
    def test_rows_in_paper_order(self):
        names = [name for name, _ in table1_rows()]
        assert names[0] == "Brazil"
        assert names[-1] == "United Kingdom"
        assert len(names) == 14

    def test_total(self):
        assert total_active_users() == sum(count for _, count in table1_rows())
        assert total_active_users() == 22576

    def test_rows_regions_consistent(self):
        for key, region in TABLE1_ROWS:
            assert region.twitter_active_users >= 0


class TestLabeledDataset:
    def test_unknown_region_rejected(self):
        with pytest.raises(Exception):
            LabeledDataset({"atlantis": TraceSet()})

    def test_crowd_access(self):
        dataset = _simple_dataset()
        assert len(dataset.crowd("germany")) == 1
        with pytest.raises(DatasetError):
            dataset.crowd("france")

    def test_totals(self):
        dataset = _simple_dataset()
        assert dataset.total_users() == 2
        assert dataset.total_posts() == 80

    def test_min_posts_filter(self):
        dataset = _simple_dataset().with_min_posts(50)
        assert dataset.total_users() == 0

    def test_merged(self):
        merged = _simple_dataset().merged()
        assert set(merged.user_ids()) == {"hans", "yuki"}

    def test_merged_subset(self):
        merged = _simple_dataset().merged(["japan"])
        assert merged.user_ids() == ["yuki"]

    def test_contains_and_iter(self):
        dataset = _simple_dataset()
        assert "germany" in dataset
        assert set(iter(dataset)) == {"germany", "japan"}


class TestHolidayFilter:
    def test_posts_on_holidays_removed(self):
        christmas = make_timestamp(2016, 12, 25, hour=12)
        workday = make_timestamp(2016, 7, 12, hour=12)
        dataset = LabeledDataset(
            {"germany": TraceSet([ActivityTrace("u", [christmas, workday])])}
        )
        cleaned = dataset.without_holidays(standard_holidays())
        assert len(cleaned.crowd("germany")["u"]) == 1


class TestCrowdProfiles:
    def test_local_profile_centred_on_local_hour(self):
        dataset = _simple_dataset()
        profile = dataset.crowd_profile("japan")  # posts at 11h UTC = 20h JST
        assert profile.peak_hour() == 20

    def test_utc_profile(self):
        dataset = _simple_dataset()
        profile = dataset.crowd_profile("japan", local_time=False)
        assert profile.peak_hour() == 11

    def test_empty_region_rejected(self):
        dataset = LabeledDataset({"germany": TraceSet()})
        with pytest.raises(DatasetError):
            dataset.crowd_profile("germany")

    def test_generic_profile_averages(self):
        dataset = _simple_dataset()
        generic = dataset.generic_profile()
        # hans posts 19 UTC = 20 CET (winter); yuki 11 UTC = 20 JST: the
        # aligned generic profile must concentrate at 20h local.
        assert generic.peak_hour() == 20

    def test_generic_profile_no_users(self):
        dataset = LabeledDataset({"germany": TraceSet()})
        with pytest.raises(DatasetError):
            dataset.generic_profile()

    def test_reference_profiles_roundtrip(self):
        dataset = _simple_dataset()
        references = dataset.reference_profiles()
        assert references.nearest_zone(references.for_zone(9)) == 9


def _dst_normalized_loop(dataset: LabeledDataset, key: str) -> TraceSet:
    """Per-stamp oracle for ``dst_normalized_crowd``: one rule call a post."""
    region = dataset.region(key)
    normalized = TraceSet()
    for trace in dataset.crowd(key):
        stamps = [
            float(ts)
            + region.dst_rule.offset_adjustment(int(ts // 86400.0)) * 3600.0
            for ts in trace.timestamps
        ]
        normalized.add(ActivityTrace(trace.user_id, stamps))
    return normalized


def _around_day_boundaries(days: list[int]) -> list[float]:
    """Stamps at, a float either side of, and an hour around each midnight."""
    stamps = []
    for day in days:
        midnight = day * SECONDS_PER_DAY
        stamps += [
            midnight,
            float(np.nextafter(midnight, -np.inf)),
            float(np.nextafter(midnight, np.inf)),
            midnight - SECONDS_PER_HOUR,
            midnight + SECONDS_PER_HOUR - 0.5,
        ]
    return stamps


class TestDstNormalization:
    @pytest.mark.parametrize(
        "key", ["germany", "new_york", "new_south_wales", "brazil", "malaysia"]
    )
    def test_equals_the_per_stamp_loop(self, key):
        """Stamps around every midnight where the rule flips in 2015
        (negative stamps: the epoch is 2016-01-01) and 2016, and around
        other negative midnights."""
        rule = get_region(key).dst_rule
        flips = [
            day
            for day in range(-400, 400)
            if rule.offset_adjustment(day) != rule.offset_adjustment(day - 1)
        ]
        near_flips = sorted({day + delta for day in flips for delta in (-1, 0, 1)})
        negative = _around_day_boundaries([-400, -200, -1]) + [-0.5, -1e-9]
        crowd = TraceSet(
            [
                ActivityTrace("flips", _around_day_boundaries(near_flips or [0, 180])),
                ActivityTrace("negative", negative),
                ActivityTrace("silent", []),
            ]
        )
        dataset = LabeledDataset({key: crowd})
        got = dataset.dst_normalized_crowd(key)
        want = _dst_normalized_loop(dataset, key)
        assert list(got.user_ids()) == list(want.user_ids())
        for user_id in want.user_ids():
            np.testing.assert_array_equal(
                got[user_id].timestamps, want[user_id].timestamps
            )
        # Two flips a year in both years, on either side of the epoch.
        assert len(flips) == (0 if key == "malaysia" else 4)

    def test_empty_crowd(self):
        dataset = LabeledDataset({"germany": TraceSet()})
        assert len(dataset.dst_normalized_crowd("germany")) == 0

    def test_summer_posts_shifted_forward(self):
        summer_post = make_timestamp(2016, 7, 10, hour=18)
        dataset = LabeledDataset(
            {"germany": TraceSet([ActivityTrace("u", [summer_post] )])}
        )
        normalized = dataset.dst_normalized_crowd("germany")
        assert normalized["u"].timestamps[0] == summer_post + 3600.0

    def test_winter_posts_untouched(self):
        winter_post = make_timestamp(2016, 1, 10, hour=18)
        dataset = LabeledDataset(
            {"germany": TraceSet([ActivityTrace("u", [winter_post])])}
        )
        normalized = dataset.dst_normalized_crowd("germany")
        assert normalized["u"].timestamps[0] == winter_post

    def test_no_dst_region_is_identity(self):
        stamps = [make_timestamp(2016, month, 1, hour=9) for month in (1, 7)]
        dataset = LabeledDataset(
            {"malaysia": TraceSet([ActivityTrace("u", stamps)])}
        )
        normalized = dataset.dst_normalized_crowd("malaysia")
        assert list(normalized["u"].timestamps) == stamps


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        traces = TraceSet(
            [
                ActivityTrace("a", [1.5, 2.5]),
                ActivityTrace("b", [100.0]),
            ]
        )
        path = tmp_path / "traces.jsonl"
        save_trace_set(traces, path)
        loaded = load_trace_set(path)
        assert set(loaded.user_ids()) == {"a", "b"}
        assert list(loaded["a"].timestamps) == [1.5, 2.5]

    @given(
        st.dictionaries(
            st.text(
                alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
                min_size=1,
                max_size=8,
            ),
            st.lists(st.floats(0, 1e8, allow_nan=False), min_size=1, max_size=20),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=20)
    def test_roundtrip_property(self, data):
        import tempfile
        from pathlib import Path

        traces = TraceSet(
            ActivityTrace(user, stamps) for user, stamps in data.items()
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.jsonl"
            save_trace_set(traces, path)
            loaded = load_trace_set(path)
        assert set(loaded.user_ids()) == set(traces.user_ids())
        for user in traces.user_ids():
            assert np.allclose(loaded[user].timestamps, traces[user].timestamps)

    @pytest.mark.parametrize(
        "bad_stamp", [-2756.928, float("nan"), float("inf")], ids=["negative", "nan", "inf"]
    )
    def test_save_refuses_what_load_refuses(self, tmp_path, bad_stamp):
        traces = TraceSet(
            [ActivityTrace("ok", [1.0]), ActivityTrace("bad", [bad_stamp, 5.0])]
        )
        path = tmp_path / "traces.jsonl"
        path.write_text("previous contents\n", encoding="utf-8")
        with pytest.raises(DatasetError) as saved:
            save_trace_set(traces, path)
        assert "'bad'" in str(saved.value)
        # Refused before the file is opened: the old file is untouched.
        assert path.read_text(encoding="utf-8") == "previous contents\n"
        # The writer's message is the one the reader gives the same record.
        raw = tmp_path / "raw.jsonl"
        record = {"user": "bad", "timestamps": [bad_stamp, 5.0]}
        raw.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError) as loaded:
            load_trace_set(raw)
        assert f"({saved.value})" in str(loaded.value)

    def test_clean_set_round_trips_byte_for_byte(self, tmp_path):
        traces = TraceSet(
            [
                ActivityTrace("a", [0.0, 1.5, 86399.999999]),
                ActivityTrace("b", [1e9 + 0.1]),
                ActivityTrace("quiet", []),
            ]
        )
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        save_trace_set(traces, first)
        save_trace_set(load_trace_set(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"user": "a"}\n')
        with pytest.raises(DatasetError):
            load_trace_set(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        path.write_text('\n{"user": "a", "timestamps": [1.0]}\n\n')
        assert len(load_trace_set(path)) == 1


class TestMalformedRecords:
    """Every malformed line raises DatasetError -- never a bare
    KeyError/ValueError from inside the decoder."""

    GOOD = '{"user": "ok", "timestamps": [1.0, 2.0]}\n'

    def _load(self, tmp_path, bad_line):
        path = tmp_path / "traces.jsonl"
        path.write_text(self.GOOD + bad_line + "\n", encoding="utf-8")
        return load_trace_set(path)

    @pytest.mark.parametrize(
        "bad_line",
        [
            '{"user": "trunc", "timestamps": [1.0,',  # truncated mid-write
            "[1, 2, 3]",  # not an object
            '"just a string"',
            '{"timestamps": [1.0]}',  # user missing
            '{"user": 7, "timestamps": [1.0]}',  # user wrong type
            '{"user": "", "timestamps": [1.0]}',  # user empty
            '{"user": "u"}',  # timestamps missing
            '{"user": "u", "timestamps": 5.0}',  # timestamps not a list
            '{"user": "u", "timestamps": ["a"]}',  # non-numeric entries
            '{"user": "u", "timestamps": [true]}',  # bools are not numbers
            '{"user": "u", "timestamps": [1.0, -5.0]}',  # negative stamp
            '{"user": "u", "timestamps": [NaN]}',  # json.loads accepts NaN
            '{"user": "u", "timestamps": [Infinity]}',
        ],
        ids=[
            "truncated",
            "array",
            "string",
            "no-user",
            "user-type",
            "user-empty",
            "no-timestamps",
            "timestamps-type",
            "timestamps-nonnumeric",
            "timestamps-bool",
            "negative",
            "nan",
            "inf",
        ],
    )
    def test_malformed_line_raises_dataset_error(self, tmp_path, bad_line):
        with pytest.raises(DatasetError) as excinfo:
            self._load(tmp_path, bad_line)
        assert "traces.jsonl:2" in str(excinfo.value)

    def test_error_is_never_a_bare_decoder_exception(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        path.write_text('{"user": "u", "timestamps": [1.0,\n', encoding="utf-8")
        try:
            load_trace_set(path)
        except DatasetError:
            pass
        else:  # pragma: no cover - the load must fail
            pytest.fail("malformed line silently accepted")

    def test_empty_timestamp_list_is_allowed(self, tmp_path):
        # An evidence-free user is not a malformed record.
        path = tmp_path / "traces.jsonl"
        path.write_text('{"user": "quiet", "timestamps": []}\n')
        loaded = load_trace_set(path)
        assert len(loaded["quiet"]) == 0


class TestResilientLoader:
    def test_quarantines_bad_lines_keeps_good(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        path.write_text(
            '{"user": "a", "timestamps": [1.0]}\n'
            '{"user": "broken", "timestamps": [NaN]}\n'
            "not json at all\n"
            '{"user": "b", "timestamps": [2.0]}\n',
            encoding="utf-8",
        )
        traces, report = load_trace_set_resilient(path)
        assert set(traces.user_ids()) == {"a", "b"}
        assert report.n_input_users == 4
        assert report.n_retained_users == 2
        assert report.n_quarantined == 2

    def test_quarantine_named_by_user_when_decodable(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        path.write_text('{"user": "broken", "timestamps": [-1.0]}\n')
        _, report = load_trace_set_resilient(path)
        assert report.quarantined_users() == ["broken"]
        assert "negative" in report.reason_for("broken")

    def test_quarantine_named_by_line_when_undecodable(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        path.write_text('{"user": "a", "timestamps": [1.0]}\n{{{\n')
        _, report = load_trace_set_resilient(path)
        assert report.quarantined_users() == ["<line 2>"]

    def test_clean_file_reports_clean(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        save_trace_set(TraceSet([ActivityTrace("a", [1.0])]), path)
        traces, report = load_trace_set_resilient(path)
        assert report.is_clean()
        assert set(traces.user_ids()) == {"a"}
