"""Cross-module integration: the full paper pipeline, end to end.

These tests exercise the complete story at a reduced scale:
synthetic crowd -> hidden-service forum (skewed clock) -> probe-calibrated
scrape -> polishing -> EMD placement -> GMM decomposition -> verdicts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.geolocate import CrowdGeolocator
from repro.forum.engine import ForumServer
from repro.forum.scraper import ForumScraper
from repro.synth.forums import FORUM_SPECS, build_forum_crowd
from repro.synth.twitter import build_twitter_dataset


@pytest.fixture(scope="module")
def idc_stack():
    """A populated IDC-like hidden-service forum and its crowd."""
    spec = FORUM_SPECS["idc"]
    crowd = build_forum_crowd(spec, seed=5, scale=0.8, n_days=366)
    forum = ForumServer(
        spec.name, spec.onion, server_offset_hours=spec.server_offset_hours
    )
    forum.import_crowd_posts(
        {
            trace.user_id: [float(ts) for ts in trace.timestamps]
            for trace in crowd.traces
        }
    )
    return crowd, forum


class TestFullPath:
    def test_scrape_recovers_true_utc(self, idc_stack):
        crowd, forum = idc_stack
        scrape = ForumScraper(forum).scrape(float(370 * 86400))
        assert scrape.server_offset_hours == pytest.approx(1.0)
        # Pick any original user and compare recovered timestamps exactly.
        user = crowd.traces.user_ids()[0]
        assert np.allclose(
            scrape.traces[user].timestamps, crowd.traces[user].timestamps
        )

    def test_geolocation_after_scrape(self, idc_stack, references):
        _, forum = idc_stack
        scrape = ForumScraper(forum).scrape(float(370 * 86400))
        report = CrowdGeolocator(references).geolocate(
            scrape.traces, crowd_name="IDC"
        )
        # At this reduced crowd size a small spurious secondary component
        # can survive selection; the dominant one must carry the crowd.
        dominant = report.mixture.dominant()
        assert report.mixture.k <= 2
        assert dominant.weight >= 0.75
        assert 0.3 <= dominant.mean <= 2.9


class TestKnownOriginValidation:
    def test_validation_forums_recover_their_countries(self, references):
        """The paper's validation logic: CRD -> Russian zones, with the
        crowd's Pearson vs the generic profile high (paper: 0.93)."""
        crowd = build_forum_crowd(FORUM_SPECS["crd_club"], seed=3, scale=0.5)
        report = CrowdGeolocator(references).geolocate(
            crowd.traces, crowd_name="CRD"
        )
        assert report.mixture.k == 1
        assert 2.4 <= report.mixture.dominant().mean <= 4.6
        assert report.pearson_vs_generic > 0.8


class TestDatasetToReferences:
    def test_references_from_scratch_place_foreign_crowd(self):
        """Build references from one dataset, place a crowd generated
        from a different seed: the method must transfer."""
        dataset = build_twitter_dataset(seed=77, scale=0.015).with_min_posts(30)
        references = dataset.reference_profiles()
        crowd = build_forum_crowd(FORUM_SPECS["idc"], seed=99, scale=0.8)
        report = CrowdGeolocator(references).geolocate(crowd.traces)
        assert 0.0 <= report.mixture.dominant().mean <= 3.0
