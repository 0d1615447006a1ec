"""The scraping procedure: probe, calibrate, dump, correct."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ForumError
from repro.forum.engine import ForumServer
from repro.forum.scraper import ForumScraper, normalize_offset_hours

DAY = 86400.0


def _forum_with_history(offset_hours):
    forum = ForumServer("F", "x.onion", server_offset_hours=offset_hours)
    forum.import_crowd_posts(
        {
            "alice": [1000.0, 5000.0, 9000.0],
            "bob": [2000.0],
        }
    )
    return forum


class TestCalibration:
    @pytest.mark.parametrize("offset", [-5, 0, 3, 11, 0.5])
    def test_offset_recovered(self, offset):
        forum = ForumServer("F", "x.onion", server_offset_hours=offset)
        scraper = ForumScraper(forum)
        assert scraper.calibrate_offset(10_000.0) == pytest.approx(offset)

    def test_quarter_hour_rounding(self):
        forum = ForumServer("F", "x.onion", server_offset_hours=2.07)
        scraper = ForumScraper(forum)
        assert scraper.calibrate_offset(0.0) == pytest.approx(2.0)

    def test_registers_researcher(self):
        forum = ForumServer("F", "x.onion")
        scraper = ForumScraper(forum, username="probe_account")
        scraper.calibrate_offset(0.0)
        assert forum.is_member("probe_account")

    def test_idempotent_registration(self):
        forum = ForumServer("F", "x.onion")
        scraper = ForumScraper(forum)
        scraper.calibrate_offset(0.0)
        scraper.calibrate_offset(100.0)  # must not raise on second signup


class TestScrape:
    def test_recovers_utc_timestamps(self):
        forum = _forum_with_history(offset_hours=7)
        result = ForumScraper(forum).scrape(50_000.0)
        assert result.server_offset_hours == pytest.approx(7.0)
        assert np.allclose(
            result.traces["alice"].timestamps, [1000.0, 5000.0, 9000.0]
        )
        assert np.allclose(result.traces["bob"].timestamps, [2000.0])

    def test_probe_post_excluded(self):
        forum = _forum_with_history(offset_hours=0)
        result = ForumScraper(forum, username="researcher").scrape(50_000.0)
        assert "researcher" not in result.traces

    def test_counts(self):
        forum = _forum_with_history(offset_hours=3)
        result = ForumScraper(forum).scrape(50_000.0)
        assert result.n_posts == 4
        assert len(result.traces) == 2

    def test_summary_mentions_offset(self):
        forum = _forum_with_history(offset_hours=3)
        result = ForumScraper(forum).scrape(50_000.0)
        assert "+3.00h" in result.summary()

    def test_negative_offset_forum(self):
        forum = _forum_with_history(offset_hours=-6)
        result = ForumScraper(forum).scrape(50_000.0)
        assert np.allclose(
            result.traces["alice"].timestamps, [1000.0, 5000.0, 9000.0]
        )

    def test_scrape_is_offset_invariant(self):
        # The recovered traces must not depend on the server clock skew.
        base = ForumScraper(_forum_with_history(0)).scrape(50_000.0)
        skewed = ForumScraper(_forum_with_history(9)).scrape(50_000.0)
        assert np.allclose(
            base.traces["alice"].timestamps, skewed.traces["alice"].timestamps
        )


class _DumpBudget:
    """A forum that fails the test once it has served 100 dumps.

    A campaign that never ends would otherwise poll (and post a probe)
    forever instead of failing.
    """

    def __init__(self, forum):
        self._forum = forum
        self.n_dumps = 0

    def visible_posts(self, *args, **kwargs):
        self.n_dumps += 1
        if self.n_dumps > 100:
            raise AssertionError("campaign still polling after 100 dumps")
        return self._forum.visible_posts(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._forum, name)


class TestCampaignSchedule:
    """``scrape_campaign`` refuses, before any poll, what it cannot run."""

    @pytest.mark.parametrize(
        ("end", "interval"),
        [
            (10 * DAY, 0.0),
            (10 * DAY, -1.0),
            (10 * DAY, math.nan),
            (10 * DAY, math.inf),
            (DAY, 3600.0),
            (0.0, 3600.0),
            (math.nan, 3600.0),
            (math.inf, 3600.0),
        ],
        ids=[
            "interval-zero",
            "interval-negative",
            "interval-nan",
            "interval-inf",
            "end-at-start",
            "end-before-start",
            "end-nan",
            "end-inf",
        ],
    )
    def test_refuses_a_schedule_it_cannot_run(self, end, interval):
        forum = _DumpBudget(_forum_with_history(0))
        with pytest.raises(ForumError):
            ForumScraper(forum).scrape_campaign(DAY, end, interval)
        assert forum.n_dumps == 0
        assert not forum.is_member("crowd_researcher")  # no probe posted


class TestOffsetNormalization:
    """Regressions for the +/-12 h seam: offsets fold into (-12, +12]."""

    @pytest.mark.parametrize(
        ("raw", "folded"),
        [
            (0.0, 0.0),
            (12.0, 12.0),  # the seam itself takes the +12 representative
            (-12.0, 12.0),  # ... from either side
            (12.25, -11.75),  # just past the seam wraps westward
            (-11.75, -11.75),
            (-12.25, 11.75),
            (13.0, -11.0),
            (-13.0, 11.0),
            (24.0, 0.0),
            (-24.0, 0.0),
            (23.75, -0.25),
            (11.75, 11.75),
        ],
    )
    def test_fold_into_half_open_day(self, raw, folded):
        assert normalize_offset_hours(raw) == pytest.approx(folded)

    def test_fold_is_idempotent(self):
        for raw in np.arange(-30.0, 30.0, 0.25):
            once = normalize_offset_hours(raw)
            assert normalize_offset_hours(once) == pytest.approx(once)
            assert -12.0 < once <= 12.0

    def test_fold_preserves_hour_of_day(self):
        for raw in np.arange(-30.0, 30.0, 0.25):
            folded = normalize_offset_hours(raw)
            assert (folded - raw) % 24.0 == pytest.approx(0.0) or (
                folded - raw
            ) % 24.0 == pytest.approx(24.0)

    @pytest.mark.parametrize("offset", [12.0, -12.0])
    def test_calibration_at_the_seam_is_canonical(self, offset):
        # A server clock 12h ahead is indistinguishable from 12h behind;
        # both calibrate to the canonical +12 representative.
        forum = ForumServer("F", "x.onion", server_offset_hours=offset)
        scraper = ForumScraper(forum)
        assert scraper.calibrate_offset(10_000.0) == pytest.approx(12.0)

    def test_calibration_just_past_the_seam(self):
        forum = ForumServer("F", "x.onion", server_offset_hours=12.25)
        assert ForumScraper(forum).calibrate_offset(0.0) == pytest.approx(-11.75)

    def test_seam_scrape_preserves_hour_of_day(self):
        # Folding moves the correction by whole days, never partial hours:
        # the recovered hour-of-day (all the method uses) is intact.
        base = ForumScraper(_forum_with_history(0)).scrape(50_000.0)
        seam = ForumScraper(_forum_with_history(-12)).scrape(50_000.0)
        base_hours = np.asarray(base.traces["alice"].timestamps) % 86400.0
        seam_hours = np.asarray(seam.traces["alice"].timestamps) % 86400.0
        assert np.allclose(base_hours, seam_hours)

    def test_rounding_lands_on_seam_then_folds(self):
        # 11.9h rounds to the 12.0 quarter-hour grid point -- exactly the
        # seam -- and must come back as +12, not -12.
        forum = ForumServer("F", "x.onion", server_offset_hours=11.9)
        assert ForumScraper(forum).calibrate_offset(0.0) == pytest.approx(12.0)
