"""The timestamp-less-forum monitor (paper Sec. VII)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ForumError
from repro.forum.engine import ForumServer
from repro.forum.monitor import ForumMonitor


def _forum_with_live_posts(offset_hours=0.0, **kwargs):
    forum = ForumServer("F", "x.onion", server_offset_hours=offset_hours, **kwargs)
    # Posts spread over ten days at 6h and 18h UTC.
    forum.import_crowd_posts(
        {
            "alice": [day * 86400.0 + 6 * 3600.0 for day in range(1, 11)],
            "bob": [day * 86400.0 + 18 * 3600.0 for day in range(1, 11)],
        }
    )
    return forum


class TestNewlyVisiblePosts:
    def test_window_query(self):
        forum = _forum_with_live_posts()
        forum.register("viewer")
        posts = forum.newly_visible_posts("viewer", 0.0, 2 * 86400.0)
        # Day 1 posts (6h, 18h) and day 2's 6h... day2 18h is at 2d+18h.
        assert len(posts) == 2

    def test_since_exclusive_until_inclusive(self):
        forum = _forum_with_live_posts()
        forum.register("viewer")
        t = 86400.0 + 6 * 3600.0
        assert len(forum.newly_visible_posts("viewer", t - 1, t)) == 1
        assert len(forum.newly_visible_posts("viewer", t, t)) == 0

    def test_rank_gating(self):
        from repro.forum.engine import Board

        forum = ForumServer("F", "x.onion")
        forum.add_board(Board("Elite", min_rank=5))
        thread = forum.create_thread("Elite", "secret")
        forum.register("vip", rank=5)
        forum.register("pleb")
        forum.submit_post("vip", thread, 100.0)
        assert len(forum.newly_visible_posts("vip", 0.0, 200.0)) == 1
        assert len(forum.newly_visible_posts("pleb", 0.0, 200.0)) == 0

    def test_index_updates_after_new_post(self):
        forum = _forum_with_live_posts()
        forum.register("viewer")
        forum.newly_visible_posts("viewer", 0.0, 86400.0)  # builds index
        thread = forum.thread_by_title("Welcome")
        forum.register("carol")
        forum.submit_post("carol", thread.thread_id, 5 * 86400.0)
        fresh = forum.newly_visible_posts(
            "viewer", 5 * 86400.0 - 1, 5 * 86400.0 + 1
        )
        assert any(post.author == "carol" for post in fresh)


class TestForumMonitor:
    def test_first_poll_discards_backlog(self):
        forum = _forum_with_live_posts()
        monitor = ForumMonitor(forum)
        assert monitor.poll(5 * 86400.0) == []
        # Everything before the first poll is gone for good.
        later = monitor.poll(20 * 86400.0)
        observed_ids = {observation.post_id for observation in later}
        # First poll at day 5 00:00 swallows days 1-4 (8 posts); the
        # remaining 12 posts (day 5's two through day 10's two) appear.
        assert len(observed_ids) == 12

    def test_campaign_recovers_crowd(self):
        forum = _forum_with_live_posts()
        result = ForumMonitor(forum).run_campaign(
            start=0.0, end=12 * 86400.0, poll_interval=1800.0
        )
        assert set(result.traces.user_ids()) == {"alice", "bob"}
        assert result.n_polls > 500

    def test_midpoint_stamping_unbiased(self):
        forum = _forum_with_live_posts()
        result = ForumMonitor(forum).run_campaign(
            start=0.0, end=12 * 86400.0, poll_interval=3600.0
        )
        # alice posts at exactly 6h; hourly polls see her between 6h and
        # 7h, midpoint-stamped at 5.5h+1h/2... within the hour.
        hours = (np.asarray(result.traces["alice"].timestamps) % 86400.0) / 3600.0
        assert np.all(np.abs(hours - 6.0) <= 0.51)

    def test_monitor_ignores_server_timestamps(self):
        # Identical observations regardless of the forum's clock skew.
        plain = ForumMonitor(_forum_with_live_posts(0.0)).run_campaign(
            0.0, 12 * 86400.0, 3600.0
        )
        skewed = ForumMonitor(_forum_with_live_posts(9.0)).run_campaign(
            0.0, 12 * 86400.0, 3600.0
        )
        assert np.allclose(
            plain.traces["alice"].timestamps, skewed.traces["alice"].timestamps
        )

    def test_publication_delay_shifts_observations(self):
        delayed = _forum_with_live_posts(publication_delay=7200.0)
        result = ForumMonitor(delayed).run_campaign(0.0, 12 * 86400.0, 900.0)
        hours = (np.asarray(result.traces["alice"].timestamps) % 86400.0) / 3600.0
        assert np.all(hours > 7.5)  # 6h post + 2h delay

    def test_invalid_campaign(self):
        forum = _forum_with_live_posts()
        with pytest.raises(ForumError):
            ForumMonitor(forum).run_campaign(0.0, 100.0, 0.0)
        with pytest.raises(ForumError):
            ForumMonitor(forum).run_campaign(100.0, 100.0, 10.0)

    def test_summary(self):
        forum = _forum_with_live_posts()
        result = ForumMonitor(forum).run_campaign(0.0, 2 * 86400.0, 3600.0)
        assert "polls" in result.summary()
