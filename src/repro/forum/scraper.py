"""The researcher's scraper (the paper's data-collection procedure).

Sec. V: "First, we sign up in the forum and write a post in the 'Welcome'
or 'Spam' thread to calculate the offset between the server time (the one
on the post) and UTC. ... once the offset from UTC is known we can collect
the timestamps of the posts in a sound and consistent way."

The scraper only ever extracts (author id, server timestamp) pairs and
corrects them to UTC -- mirroring both the methodology and the ethics
commitments (no post bodies are retained).

Collection against a real hidden service is flaky, so every forum call can
be routed through a :class:`~repro.reliability.policy.RetryPolicy`, post
listings are deduplicated by post id, and :meth:`ForumScraper.scrape_campaign`
runs a long campaign of repeated dumps with periodic offset re-calibration
(catching server clock skew mid-campaign) and an atomic JSON checkpoint, so
a killed process resumes from the last completed poll instead of restarting.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.events import ActivityTrace, TraceSet
from repro.errors import ForumError, RetryExhaustedError, TransientForumError
from repro.forum.engine import PROBE_THREADS
from repro.forum.monitor import check_campaign
from repro.obs import metrics as obs_metrics
from repro.obs.logs import get_logger, log_event
from repro.reliability.checkpoint import read_checkpoint, write_checkpoint
from repro.reliability.clocks import Clock
from repro.reliability.policy import RetryPolicy

_log = get_logger("forum")

#: Checkpoint envelope identifiers for :meth:`ForumScraper.scrape_campaign`.
CAMPAIGN_CHECKPOINT_KIND = "scrape-campaign"
CAMPAIGN_CHECKPOINT_VERSION = 1


def normalize_offset_hours(offset_hours: float) -> float:
    """Fold an offset into the canonical (-12, +12] half-open day.

    A server clock 12 h behind UTC is indistinguishable from one 12 h
    ahead, and raw probe arithmetic near the +/-12 h seam can land on
    either representative (e.g. -12.0 vs +12.0, or +12.25 vs -11.75).
    Folding keeps every downstream offset comparison consistent.
    """
    folded = (offset_hours + 12.0) % 24.0 - 12.0
    if folded <= -12.0:  # the % above maps the seam itself to -12.0
        folded += 24.0
    return folded


@dataclass(frozen=True)
class ScrapeResult:
    """Everything the scraper walks away with."""

    forum_name: str
    server_offset_hours: float
    traces: TraceSet
    n_posts: int

    def summary(self) -> str:
        return (
            f"{self.forum_name}: {len(self.traces)} authors, "
            f"{self.n_posts} posts, server offset "
            f"{self.server_offset_hours:+.2f}h from UTC"
        )


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of a resilient multi-poll scrape campaign."""

    forum_name: str
    server_offset_hours: float
    traces: TraceSet
    n_posts: int
    n_polls: int
    n_failed_polls: int
    n_skew_corrections: int
    resumed: bool

    def summary(self) -> str:
        return (
            f"{self.forum_name}: {len(self.traces)} authors, {self.n_posts} "
            f"posts over {self.n_polls} polls ({self.n_failed_polls} failed, "
            f"{self.n_skew_corrections} skew corrections, final offset "
            f"{self.server_offset_hours:+.2f}h)"
            + (" [resumed]" if self.resumed else "")
        )


class ForumScraper:
    """Signs up, calibrates the server clock, dumps author/timestamp pairs.

    *forum* is anything exposing the :class:`repro.forum.engine.ForumServer`
    API -- the engine itself or a
    :class:`~repro.reliability.faults.FlakyForumProxy` around it.  When
    *retry_policy* is given, every forum call is retried under it
    (transient failures only); *clock* is the clock backoff sleeps run on
    (tests inject a :class:`~repro.reliability.clocks.ManualClock`).
    """

    def __init__(
        self,
        forum,
        username: str = "crowd_researcher",
        *,
        retry_policy: RetryPolicy | None = None,
        clock: Clock | None = None,
    ) -> None:
        self.forum = forum
        self.username = username
        self.retry_policy = retry_policy
        self.clock = clock

    def _call(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """One forum call, retried under the policy when one is configured."""
        if self.retry_policy is None:
            return fn(*args, **kwargs)
        return self.retry_policy.execute(fn, *args, clock=self.clock, **kwargs)

    def _ensure_membership(self) -> None:
        if not self._call(self.forum.is_member, self.username):
            self._call(self.forum.register, self.username)

    def _probe_thread(self):
        for title in PROBE_THREADS:
            try:
                return self._call(self.forum.thread_by_title, title)
            except TransientForumError:
                raise
            except ForumError:
                continue
        raise ForumError("forum has no Welcome/Spam thread to probe")

    def calibrate_offset(self, utc_now: float) -> float:
        """Probe post in the Welcome/Spam thread; return offset in hours.

        The offset is rounded to the nearest quarter hour: real forum
        clocks sit on timezone-shaped offsets, and the rounding absorbs
        the seconds between composing and the server stamping the post.
        The rounded value is folded into (-12, +12] so offsets near the
        +/-12 h seam always take the canonical representative.
        """
        self._ensure_membership()
        thread = self._probe_thread()
        post = self._call(
            self.forum.submit_post,
            self.username,
            thread.thread_id,
            utc_now,
            body="hello",
        )
        raw_offset_hours = (post.server_time - utc_now) / 3600.0
        return normalize_offset_hours(round(raw_offset_hours * 4.0) / 4.0)

    def calibrate_offset_robust(
        self, utc_now: float, *, n_probes: int = 5, spacing: float = 600.0
    ) -> float:
        """Offset calibration that survives jittered server timestamps.

        Against a forum that adds a random delay to displayed timestamps
        (the Sec. VII countermeasure), a single probe absorbs its own
        random delay into the offset estimate.  Posting several probes
        and taking the *minimum* observed (server - true) difference
        converges on the real clock offset, since the jitter is
        nonnegative.  Rounded and folded like :meth:`calibrate_offset`.
        """
        self._ensure_membership()
        thread = self._probe_thread()
        deltas = []
        for index in range(max(n_probes, 1)):
            at = utc_now + index * spacing
            post = self._call(
                self.forum.submit_post,
                self.username,
                thread.thread_id,
                at,
                body=f"probe {index}",
            )
            deltas.append((post.server_time - at) / 3600.0)
        return normalize_offset_hours(round(min(deltas) * 4.0) / 4.0)

    def scrape(self, utc_now: float, *, robust_probes: int = 1) -> ScrapeResult:
        """Full collection run: calibrate, dump, correct to UTC.

        ``robust_probes > 1`` switches to the multi-probe minimum-delay
        calibration, which matters only against timestamp-jittering
        forums.  Duplicated entries in the dump (a flaky forum replaying
        posts) are dropped by post id before traces are built.
        """
        if robust_probes > 1:
            offset_hours = self.calibrate_offset_robust(
                utc_now, n_probes=robust_probes
            )
        else:
            offset_hours = self.calibrate_offset(utc_now)
        posts = self._call(self.forum.visible_posts, self.username, utc_now)
        by_author: dict[str, list[float]] = {}
        seen_ids: set[int] = set()
        for post in posts:
            if post.post_id in seen_ids:
                continue  # duplicated listing entry (flaky forum replay)
            seen_ids.add(post.post_id)
            if post.author == self.username:
                continue  # our own probe post is not part of the crowd
            corrected_utc = post.server_time - offset_hours * 3600.0
            by_author.setdefault(post.author, []).append(corrected_utc)
        traces = TraceSet(
            ActivityTrace(author, stamps) for author, stamps in by_author.items()
        )
        return ScrapeResult(
            forum_name=getattr(self.forum, "name", "forum"),
            server_offset_hours=offset_hours,
            traces=traces,
            n_posts=traces.total_posts(),
        )

    # -- resilient campaign ------------------------------------------------

    def scrape_campaign(
        self,
        start: float,
        end: float,
        poll_interval: float,
        *,
        checkpoint_path=None,
        resume: bool = False,
        forum_name: str | None = None,
    ) -> CampaignResult:
        """Poll the forum from *start* to *end*, surviving faults and kills.

        Every poll re-calibrates the server offset with a probe post
        before dumping, so a server clock that is stepped or drifts
        mid-campaign (skew) is detected and each post is corrected with
        the offset in effect when it was first seen.  Posts are
        deduplicated by id across polls, a poll whose calls exhaust the
        retry policy is skipped (counted in ``n_failed_polls``) rather
        than aborting the campaign, and after every completed poll the
        full campaign state is checkpointed to *checkpoint_path* (when
        given).  With ``resume=True`` the campaign restarts from the
        checkpoint's last completed poll instead of from *start*.  A
        schedule that :func:`~repro.forum.monitor.check_campaign` refuses
        raises :class:`ForumError` before the first poll.
        """
        check_campaign(start, end, poll_interval, checkpoint_every=1)

        offset_hours: float | None = None
        seen_ids: set[int] = set()
        collected: list[tuple[int, str, float]] = []
        last_poll_time = float("-inf")
        n_polls = 0
        n_failed_polls = 0
        n_skew_corrections = 0
        resumed = False
        if resume:
            if checkpoint_path is None:
                raise ForumError("resume=True requires a checkpoint_path")
            state = read_checkpoint(
                checkpoint_path,
                CAMPAIGN_CHECKPOINT_KIND,
                CAMPAIGN_CHECKPOINT_VERSION,
            )
            offset_hours = state["offset_hours"]
            seen_ids = set(state["seen_post_ids"])
            collected = [
                (int(pid), str(author), float(stamp))
                for pid, author, stamp in state["collected"]
            ]
            last_poll_time = float(state["last_poll_time"])
            n_polls = int(state["n_polls"])
            n_failed_polls = int(state["n_failed_polls"])
            n_skew_corrections = int(state["n_skew_corrections"])
            resumed = True

        time = start
        while time <= end:
            if time > last_poll_time:
                try:
                    offset_hours, n_skew_corrections = self._campaign_poll(
                        time,
                        offset_hours,
                        n_skew_corrections,
                        seen_ids,
                        collected,
                    )
                except (TransientForumError, RetryExhaustedError):
                    n_failed_polls += 1
                    obs_metrics.counter(
                        "repro_forum_campaign_failed_polls_total",
                        "campaign polls skipped after forum failures",
                    ).inc()
                else:
                    last_poll_time = time
                    n_polls += 1
                    obs_metrics.counter(
                        "repro_forum_campaign_polls_total",
                        "completed campaign polls",
                    ).inc()
                    if checkpoint_path is not None:
                        write_checkpoint(
                            checkpoint_path,
                            CAMPAIGN_CHECKPOINT_KIND,
                            CAMPAIGN_CHECKPOINT_VERSION,
                            {
                                "offset_hours": offset_hours,
                                "seen_post_ids": sorted(seen_ids),
                                "collected": [
                                    list(entry) for entry in collected
                                ],
                                "last_poll_time": last_poll_time,
                                "n_polls": n_polls,
                                "n_failed_polls": n_failed_polls,
                                "n_skew_corrections": n_skew_corrections,
                            },
                        )
            time += poll_interval

        by_author: dict[str, list[float]] = {}
        for _post_id, author, stamp in collected:
            by_author.setdefault(author, []).append(stamp)
        traces = TraceSet(
            ActivityTrace(author, stamps) for author, stamps in by_author.items()
        )
        result = CampaignResult(
            forum_name=forum_name or getattr(self.forum, "name", "forum"),
            server_offset_hours=offset_hours if offset_hours is not None else 0.0,
            traces=traces,
            n_posts=traces.total_posts(),
            n_polls=n_polls,
            n_failed_polls=n_failed_polls,
            n_skew_corrections=n_skew_corrections,
            resumed=resumed,
        )
        log_event(
            _log,
            logging.INFO,
            "scrape_campaign_done",
            forum=result.forum_name,
            n_polls=result.n_polls,
            n_failed_polls=result.n_failed_polls,
            n_skew_corrections=result.n_skew_corrections,
            n_authors=len(result.traces),
            n_posts=result.n_posts,
            resumed=result.resumed,
        )
        return result

    def _campaign_poll(
        self,
        utc_now: float,
        offset_hours: float | None,
        n_skew_corrections: int,
        seen_ids: set[int],
        collected: list[tuple[int, str, float]],
    ) -> tuple[float, int]:
        """One campaign poll: re-calibrate, dump, dedup, correct to UTC."""
        calibrated = self.calibrate_offset(utc_now)
        if offset_hours is not None and calibrated != offset_hours:
            n_skew_corrections += 1  # skew detected: the server clock moved
            obs_metrics.counter(
                "repro_forum_skew_corrections_total",
                "server clock skew corrections applied mid-campaign",
            ).inc()
            log_event(
                _log,
                logging.WARNING,
                "server_clock_skew",
                old_offset_hours=offset_hours,
                new_offset_hours=calibrated,
            )
        offset_hours = calibrated
        posts = self._call(self.forum.visible_posts, self.username, utc_now)
        for post in posts:
            if post.post_id in seen_ids or post.author == self.username:
                continue
            seen_ids.add(post.post_id)
            collected.append(
                (post.post_id, post.author, post.server_time - offset_hours * 3600.0)
            )
        return offset_hours, n_skew_corrections
