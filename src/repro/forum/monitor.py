"""Monitoring forums that hide timestamps (paper Sec. VII).

    "Timestamps are always shown in the Dark Web forums under
    investigation.  However, the forum might remove them ... This is
    actually not stopping our methodology -- it is enough to monitor the
    forum, see when posts are made and timestamp them ourselves."

:class:`ForumMonitor` implements that fallback: it polls the forum on a
schedule, diffs the visible post ids against the previous poll, and
stamps every newly-appeared post with the *observation* time.  The
recovered timestamp is therefore quantised to the polling interval --
coarse polling adds uniform noise of up to one interval per post, which
the paper argues (and :mod:`repro.analysis.countermeasures` measures)
still supports profile building as long as the interval stays well below
a few hours.

A multi-month campaign must survive a flaky forum and a dying collector:
polls retry under an optional :class:`~repro.reliability.policy.RetryPolicy`,
a poll that still fails is skipped (its window folds into the next
successful poll), replayed posts are deduplicated by id, and the full
monitor state checkpoints to an atomic JSON file from which
:meth:`ForumMonitor.from_checkpoint` resumes.
The monitor only collects: ``darkcrowd monitor --drift-window`` streams
the campaign's traces once it ends, posts from before a resume included.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.events import ActivityTrace, TraceSet
from repro.errors import ForumError, RetryExhaustedError, TransientForumError
from repro.obs import metrics as obs_metrics
from repro.obs.logs import get_logger, log_event
from repro.obs.progress import ProgressReporter
from repro.reliability.checkpoint import read_checkpoint, write_checkpoint
from repro.reliability.clocks import Clock
from repro.reliability.policy import RetryPolicy

_log = get_logger("forum")

#: Checkpoint envelope identifiers for :class:`ForumMonitor` state.
MONITOR_CHECKPOINT_KIND = "forum-monitor"
MONITOR_CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class Observation:
    """One sighting of a new post."""

    post_id: int
    author: str
    observed_at: float


@dataclass(frozen=True)
class MonitorResult:
    """The outcome of a monitoring campaign."""

    forum_name: str
    traces: TraceSet
    n_polls: int
    poll_interval: float
    observations: tuple[Observation, ...]
    n_failed_polls: int = 0

    def summary(self) -> str:
        degraded = (
            f", {self.n_failed_polls} polls failed" if self.n_failed_polls else ""
        )
        return (
            f"{self.forum_name}: {len(self.traces)} authors observed over "
            f"{self.n_polls} polls every {self.poll_interval / 3600:.2f}h "
            f"({len(self.observations)} posts stamped{degraded})"
        )


def check_campaign(
    start: float, end: float, poll_interval: float, checkpoint_every: int
) -> None:
    """Raise :class:`ForumError` for a schedule ``run_campaign`` cannot run."""
    if not 0 < poll_interval < math.inf:
        raise ForumError(f"poll interval must be positive and finite: {poll_interval}")
    if not start < end < math.inf:
        raise ForumError(f"campaign must end after it starts, in finite time: {end}")
    if checkpoint_every < 1:
        raise ForumError(f"checkpoint_every must be >= 1: {checkpoint_every}")


class ForumMonitor:
    """Reconstructs post times by polling a timestamp-less forum.

    *forum* needs only the ``visible_posts`` / ``register`` / ``is_member``
    surface; the monitor never reads ``server_time`` -- it pretends the
    field does not exist, exactly the scenario of Sec. VII.  With a
    *retry_policy* every poll survives transient forum failures; *clock*
    is what backoff sleeps run on (tests inject a
    :class:`~repro.reliability.clocks.ManualClock`).
    """

    def __init__(
        self,
        forum,
        username: str = "crowd_monitor",
        *,
        retry_policy: RetryPolicy | None = None,
        clock: Clock | None = None,
        observatory=None,
    ) -> None:
        self.forum = forum
        self.username = username
        self.retry_policy = retry_policy
        self.clock = clock
        #: Optional :class:`~repro.obs.health.Observatory` (anything with
        #: ``tick(now)``): ticked once per campaign step on campaign time,
        #: so series sampling and health evaluation ride the poll cadence.
        #: ``None`` (the default) keeps the campaign loop untouched.
        self.observatory = observatory
        self._last_poll_time = float("-inf")
        self._observations: list[Observation] = []
        self._seen_post_ids: set[int] = set()
        self._polls = 0
        self._failed_polls = 0

    def _call(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        if self.retry_policy is None:
            return fn(*args, **kwargs)
        return self.retry_policy.execute(fn, *args, clock=self.clock, **kwargs)

    def _ensure_membership(self) -> None:
        if not self._call(self.forum.is_member, self.username):
            self._call(self.forum.register, self.username)

    @property
    def n_failed_polls(self) -> int:
        return self._failed_polls

    def poll(self, utc_now: float) -> list[Observation]:
        """One poll: stamp every post that appeared since the last poll.

        Posts present at the *first* poll have unknown creation times and
        are deliberately discarded -- stamping them with the first-poll
        time would concentrate spurious mass in one hour bin.  Posts the
        forum replays (already stamped in an earlier poll) are dropped by
        id: re-stamping a replay would double-count the author and smear
        their profile toward the replay time.
        """
        self._ensure_membership()
        new_posts = self._call(
            self.forum.newly_visible_posts,
            self.username,
            self._last_poll_time,
            utc_now,
        )
        previous_poll = self._last_poll_time
        self._last_poll_time = utc_now
        first_poll = self._polls == 0
        self._polls += 1
        obs_metrics.counter(
            "repro_forum_monitor_polls_total", "successful monitor polls"
        ).inc()
        if first_poll:
            self._seen_post_ids.update(post.post_id for post in new_posts)
            return []
        # A post that appeared between two polls was created uniformly at
        # random within the window; stamping with the window midpoint is
        # unbiased, where stamping with the poll time would shift every
        # trace half an interval late (and the crowd half a zone west per
        # two hours of interval).
        stamp = (previous_poll + utc_now) / 2.0
        fresh = []
        n_replays = 0
        for post in new_posts:
            if post.post_id in self._seen_post_ids:
                n_replays += 1
                continue
            self._seen_post_ids.add(post.post_id)
            if post.author == self.username:
                continue
            fresh.append(
                Observation(
                    post_id=post.post_id, author=post.author, observed_at=stamp
                )
            )
        self._observations.extend(fresh)
        if fresh:
            obs_metrics.counter(
                "repro_forum_monitor_posts_stamped_total",
                "posts stamped by the monitor",
            ).inc(len(fresh))
        if n_replays:
            obs_metrics.counter(
                "repro_forum_monitor_replays_dropped_total",
                "replayed posts dropped by id dedup",
            ).inc(n_replays)
        return fresh

    def run_campaign(
        self,
        start: float,
        end: float,
        poll_interval: float,
        forum_name: str | None = None,
        *,
        checkpoint_path=None,
        checkpoint_every: int = 1,
    ) -> MonitorResult:
        """Poll from *start* to *end* every *poll_interval* seconds.

        A poll whose forum calls fail (transiently without a retry
        policy, or exhausting one) is skipped and counted; its window is
        folded into the next successful poll, whose wider midpoint stamp
        degrades resolution for those posts instead of losing them.
        Polls at or before the monitor's last completed poll time are
        skipped entirely, which is what resumes a checkpointed campaign
        from where it stopped.  When *checkpoint_path* is given the full
        monitor state is persisted after every *checkpoint_every*-th
        successful poll and once more at campaign end.
        """
        check_campaign(start, end, poll_interval, checkpoint_every)
        progress = ProgressReporter(
            "forum",
            "monitor_campaign",
            total=int((end - start) // poll_interval) + 1,
            unit="polls",
        )
        time = start
        while time <= end:
            if time > self._last_poll_time:
                try:
                    self.poll(time)
                except (TransientForumError, RetryExhaustedError):
                    self._failed_polls += 1
                    obs_metrics.counter(
                        "repro_forum_monitor_failed_polls_total",
                        "polls skipped after forum failures",
                    ).inc()
                else:
                    if (
                        checkpoint_path is not None
                        and self._polls % checkpoint_every == 0
                    ):
                        self.save_checkpoint(checkpoint_path)
            if self.observatory is not None:
                self.observatory.tick(time)
            progress.advance()
            time += poll_interval
        progress.finish()
        if checkpoint_path is not None:
            self.save_checkpoint(checkpoint_path)
        buckets: dict[str, list[float]] = {}
        for observation in self._observations:
            buckets.setdefault(observation.author, []).append(
                observation.observed_at
            )
        result = MonitorResult(
            forum_name=forum_name or getattr(self.forum, "name", "forum"),
            traces=TraceSet(
                ActivityTrace(author, stamps) for author, stamps in buckets.items()
            ),
            n_polls=self._polls,
            poll_interval=poll_interval,
            observations=tuple(self._observations),
            n_failed_polls=self._failed_polls,
        )
        log_event(
            _log,
            logging.INFO,
            "monitor_campaign_done",
            forum=result.forum_name,
            n_polls=result.n_polls,
            n_failed_polls=result.n_failed_polls,
            n_authors=len(result.traces),
            n_posts_stamped=len(result.observations),
        )
        return result

    # -- checkpoint / resume ----------------------------------------------

    def save_checkpoint(self, path) -> None:
        """Persist the full monitor state atomically to *path* (JSON)."""
        write_checkpoint(
            path,
            MONITOR_CHECKPOINT_KIND,
            MONITOR_CHECKPOINT_VERSION,
            {
                "username": self.username,
                "last_poll_time": self._last_poll_time,
                "n_polls": self._polls,
                "n_failed_polls": self._failed_polls,
                "seen_post_ids": sorted(self._seen_post_ids),
                "observations": [
                    [obs.post_id, obs.author, obs.observed_at]
                    for obs in self._observations
                ],
            },
        )

    @classmethod
    def from_checkpoint(
        cls,
        forum,
        path,
        *,
        retry_policy: RetryPolicy | None = None,
        clock: Clock | None = None,
        observatory=None,
    ) -> "ForumMonitor":
        """Rebuild a monitor from :meth:`save_checkpoint` state.

        Re-running :meth:`run_campaign` with the original arguments then
        continues from the last completed poll: already-performed polls
        are skipped and already-stamped posts are deduplicated.
        *observatory* re-attaches a health observatory.
        """
        state = read_checkpoint(
            path, MONITOR_CHECKPOINT_KIND, MONITOR_CHECKPOINT_VERSION
        )
        monitor = cls(
            forum,
            username=str(state["username"]),
            retry_policy=retry_policy,
            clock=clock,
            observatory=observatory,
        )
        monitor._last_poll_time = float(state["last_poll_time"])
        monitor._polls = int(state["n_polls"])
        monitor._failed_polls = int(state["n_failed_polls"])
        monitor._seen_post_ids = set(int(pid) for pid in state["seen_post_ids"])
        monitor._observations = [
            Observation(int(pid), str(author), float(at))
            for pid, author, at in state["observations"]
        ]
        return monitor
