"""The end-to-end CrowdGeolocator pipeline."""

from __future__ import annotations

import pytest

from repro.core.events import TraceSet
from repro.core.geolocate import CrowdGeolocator
from repro.errors import EmptyTraceError
from repro.synth.bots import generate_bot_trace
from repro.synth.forums import build_merged_crowd
from repro.synth.twitter import build_region_crowd


class TestGeolocate:
    def test_single_country_crowd(self, references):
        crowd = build_region_crowd("malaysia", 60, seed=8, n_days=366)
        geolocator = CrowdGeolocator(references)
        report = geolocator.geolocate(crowd, crowd_name="test crowd")
        assert report.crowd_name == "test crowd"
        assert report.mixture.k == 1
        assert abs(report.mixture.dominant().mean - 8.0) <= 1.0
        assert report.n_users > 0
        assert report.n_posts > 0

    def test_two_country_crowd(self, references):
        crowd = build_merged_crowd(("illinois", "malaysia"), 60, seed=9, n_days=366)
        report = CrowdGeolocator(references).geolocate(crowd)
        zones = sorted(report.zone_offsets())
        assert len(zones) == 2
        assert abs(zones[0] - (-6)) <= 1
        assert abs(zones[1] - 8) <= 1

    def test_polish_removes_bots(self, references, rng):
        crowd = build_region_crowd("japan", 40, seed=10, n_days=366)
        for index in range(4):
            crowd.add(generate_bot_trace(f"bot{index}", rng, n_days=366))
        report = CrowdGeolocator(references).geolocate(crowd)
        assert report.n_removed_flat >= 3
        assert all("bot" not in user for user in report.user_zones)

    def test_empty_crowd_rejected(self, references):
        with pytest.raises(EmptyTraceError):
            CrowdGeolocator(references).geolocate(TraceSet())

    def test_threshold_too_high_rejected(self, references):
        crowd = build_region_crowd("japan", 10, seed=10, n_days=90)
        geolocator = CrowdGeolocator(references, min_posts=10**7)
        with pytest.raises(EmptyTraceError):
            geolocator.geolocate(crowd)

    def test_hemisphere_results_attached(self, references):
        crowd = build_region_crowd("brazil", 40, seed=12, n_days=366)
        report = CrowdGeolocator(references).geolocate(crowd, hemisphere_top_n=3)
        assert len(report.hemisphere) == 3

    def test_user_zones_cover_crowd(self, references):
        crowd = build_region_crowd("france", 30, seed=13, n_days=366)
        report = CrowdGeolocator(references).geolocate(crowd)
        assert len(report.user_zones) == report.n_users

    def test_summary_mentions_zones(self, references):
        crowd = build_region_crowd("malaysia", 40, seed=8, n_days=366)
        report = CrowdGeolocator(references).geolocate(crowd, crowd_name="X")
        summary = report.summary()
        assert "X" in summary
        assert "UTC+" in summary

    def test_fit_metrics_much_better_than_baseline(self, references):
        from repro.core.metrics import baseline_metrics

        crowd = build_region_crowd("malaysia", 80, seed=8, n_days=366)
        report = CrowdGeolocator(references).geolocate(crowd)
        baseline = baseline_metrics(report.placement, report.mixture.components)
        assert report.fit_metrics.average < baseline.average

    def test_default_references_canonical(self):
        geolocator = CrowdGeolocator()
        assert geolocator.references is not None

    @pytest.mark.parametrize("quarantine", [False, True])
    def test_builds_one_stamp_column_per_call(
        self, references, monkeypatch, quarantine
    ):
        crowd = build_region_crowd("malaysia", 40, seed=8, n_days=120)
        calls = []
        columns = TraceSet.columns

        def counted(traces):
            calls.append(len(traces))
            return columns(traces)

        monkeypatch.setattr(TraceSet, "columns", counted)
        CrowdGeolocator(references).geolocate(crowd, quarantine=quarantine)
        assert calls == [len(crowd)]

    def test_pearson_reported_high_for_clean_crowd(self, references):
        crowd = build_region_crowd("malaysia", 60, seed=8, n_days=366)
        report = CrowdGeolocator(references).geolocate(crowd)
        assert report.pearson_vs_generic > 0.75
