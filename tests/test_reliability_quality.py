"""Quarantine of corrupt traces and the DataQualityReport accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.events import ActivityTrace, TraceSet
from repro.core.geolocate import CrowdGeolocator
from repro.errors import CorruptTraceError
from repro.reliability.quality import (
    REASON_EMPTY,
    REASON_NON_FINITE,
    assert_traces_clean,
    partition_trace_set,
    trace_fault,
)
from repro.synth.twitter import build_region_crowd

pytestmark = pytest.mark.reliability


class TestTraceFault:
    def test_healthy(self):
        assert trace_fault(ActivityTrace("u", [100.0, 200.0])) is None

    def test_empty(self):
        assert trace_fault(ActivityTrace("u")) == REASON_EMPTY

    def test_nan(self):
        assert trace_fault(ActivityTrace("u", [100.0, float("nan")])) == REASON_NON_FINITE

    def test_inf(self):
        assert trace_fault(ActivityTrace("u", [float("inf")])) == REASON_NON_FINITE

    def test_negative_is_fine(self):
        # The simulation epoch is arbitrary: zones east of UTC produce
        # legitimately negative UTC stamps near day 0 (only the on-disk
        # JSONL format pins timestamps to be nonnegative).
        assert trace_fault(ActivityTrace("u", [500.0, -1.0])) is None

    def test_zero_is_fine(self):
        assert trace_fault(ActivityTrace("u", [0.0])) is None


class TestPartition:
    def _mixed(self):
        return TraceSet(
            [
                ActivityTrace("ok1", [100.0, 200.0]),
                ActivityTrace("ok2", [300.0]),
                ActivityTrace("hollow", []),
                ActivityTrace("mangled", [100.0, float("nan")]),
                ActivityTrace("garbled", [float("inf"), 60.0]),
            ]
        )

    def test_every_trace_lands_once(self):
        healthy, report = partition_trace_set(self._mixed())
        assert set(healthy.user_ids()) == {"ok1", "ok2"}
        assert report.n_input_users == 5
        assert report.n_retained_users == 2
        assert report.n_quarantined == 3

    def test_reasons_named_per_user(self):
        _, report = partition_trace_set(self._mixed())
        assert report.reason_for("hollow") == REASON_EMPTY
        assert report.reason_for("mangled") == REASON_NON_FINITE
        assert report.reason_for("garbled") == REASON_NON_FINITE
        assert report.reason_for("ok1") is None

    def test_report_accounting(self):
        _, report = partition_trace_set(self._mixed())
        assert report.fraction_retained() == pytest.approx(0.4)
        assert report.reasons() == {
            REASON_EMPTY: 1,
            REASON_NON_FINITE: 2,
        }
        assert not report.is_clean()
        assert "retained 2/5" in report.summary()

    def test_clean_crowd(self):
        crowd = TraceSet([ActivityTrace("u", [100.0])])
        healthy, report = partition_trace_set(crowd)
        assert report.is_clean()
        assert report.fraction_retained() == 1.0
        assert "clean" in report.summary()

    def test_quarantined_evidence_volume(self):
        _, report = partition_trace_set(self._mixed())
        by_user = {entry.user_id: entry for entry in report.quarantined}
        assert by_user["mangled"].n_posts == 2
        assert by_user["hollow"].n_posts == 0


class TestAssertTracesClean:
    def test_accepts_clean(self):
        assert_traces_clean(TraceSet([ActivityTrace("u", [100.0])]))

    def test_accepts_empty_traces(self):
        # Lack of evidence is not corruption; the activity threshold
        # handles empty traces downstream, as it always has.
        assert_traces_clean(TraceSet([ActivityTrace("u", [])]))

    def test_rejects_nan_naming_the_user(self):
        crowd = TraceSet([ActivityTrace("broken", [float("nan")])])
        with pytest.raises(CorruptTraceError, match="broken"):
            assert_traces_clean(crowd)

    def test_rejects_inf(self):
        crowd = TraceSet([ActivityTrace("inf_user", [float("inf")])])
        with pytest.raises(CorruptTraceError):
            assert_traces_clean(crowd)

    def test_accepts_negative_timestamps(self):
        # See test_negative_is_fine: negative stamps are legitimate data.
        assert_traces_clean(TraceSet([ActivityTrace("east", [-28800.0])]))

    def test_returns_the_validated_column(self):
        crowd = TraceSet(
            [ActivityTrace("a", [200.0, 100.0]), ActivityTrace("quiet", [])]
        )
        user_ids, lengths, stamps = assert_traces_clean(crowd)
        expected_ids, expected_lengths, expected_stamps = crowd.columns()
        assert user_ids == expected_ids
        np.testing.assert_array_equal(lengths, expected_lengths)
        np.testing.assert_array_equal(stamps, expected_stamps)


class TestQuarantineGeolocation:
    """geolocate(quarantine=True): the ISSUE's 10 %-corrupt-crowd criterion."""

    def _corrupt_crowd(self):
        # 36 healthy Malaysian users + 4 corrupt ones = 10 % corruption.
        crowd = build_region_crowd("malaysia", 36, seed=8, n_days=366)
        crowd.add(ActivityTrace("corrupt_nan_a", [1000.0, float("nan")]))
        crowd.add(ActivityTrace("corrupt_nan_b", [float("nan")] * 40))
        crowd.add(ActivityTrace("corrupt_inf", [float("inf"), 3600.0]))
        crowd.add(ActivityTrace("corrupt_empty", []))
        return crowd

    def test_strict_mode_hard_fails(self, references):
        with pytest.raises(CorruptTraceError):
            CrowdGeolocator(references).geolocate(self._corrupt_crowd())

    def test_quarantine_mode_places_healthy_ninety_percent(self, references):
        crowd = self._corrupt_crowd()
        report = CrowdGeolocator(references).geolocate(
            crowd, crowd_name="mixed", quarantine=True
        )
        # The healthy 90 % is analysed as if the corruption never happened.
        clean_crowd = build_region_crowd("malaysia", 36, seed=8, n_days=366)
        clean = CrowdGeolocator(references).geolocate(clean_crowd)
        assert report.n_users == clean.n_users
        assert set(report.user_zones) == set(clean.user_zones)
        assert abs(report.mixture.dominant().mean - 8.0) <= 1.2

    def test_quality_report_names_every_quarantined_user(self, references):
        report = CrowdGeolocator(references).geolocate(
            self._corrupt_crowd(), quarantine=True
        )
        quality = report.data_quality
        assert quality is not None
        assert quality.n_input_users == 40
        assert quality.n_retained_users == 36
        assert set(quality.quarantined_users()) == {
            "corrupt_nan_a",
            "corrupt_nan_b",
            "corrupt_inf",
            "corrupt_empty",
        }
        assert quality.reason_for("corrupt_nan_a") == REASON_NON_FINITE
        assert quality.reason_for("corrupt_nan_b") == REASON_NON_FINITE
        assert quality.reason_for("corrupt_inf") == REASON_NON_FINITE
        assert quality.reason_for("corrupt_empty") == REASON_EMPTY
        assert quality.fraction_retained() == pytest.approx(0.9)

    def test_summary_mentions_quality(self, references):
        report = CrowdGeolocator(references).geolocate(
            self._corrupt_crowd(), quarantine=True
        )
        assert "quarantined" in report.summary()

    def test_quarantine_on_clean_crowd_reports_clean(self, references):
        crowd = build_region_crowd("malaysia", 36, seed=8, n_days=366)
        report = CrowdGeolocator(references).geolocate(crowd, quarantine=True)
        assert report.data_quality is not None
        assert report.data_quality.is_clean()
        assert "quarantined" not in report.summary()

    def test_strict_mode_report_has_no_quality_field(self, references):
        crowd = build_region_crowd("malaysia", 36, seed=8, n_days=366)
        report = CrowdGeolocator(references).geolocate(crowd)
        assert report.data_quality is None
