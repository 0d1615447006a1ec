"""Dark Web forum substrate: server engine, scraper client, monitor.

The paper's data-collection path (Sec. V): sign up on the forum, post in
the Welcome/Spam thread to calibrate the offset between server time and
UTC, then dump every post's (author id, timestamp) pair.  This package
implements both sides of that interaction, plus the timestamp-less case
of Sec. VII:

* :mod:`repro.forum.engine`  -- the forum server (users, threads, posts,
  a server clock with an arbitrary UTC offset, optional publication
  delay and timestamp jitter),
* :mod:`repro.forum.scraper` -- the researcher's client performing the
  signup / probe-post / offset-calibration / dump procedure,
* :mod:`repro.forum.monitor` -- the poller that reconstructs post times
  on a forum that shows none.

The scraper talks to the server directly: the method reads only (author
id, timestamp) pairs, so the Tor access path of Sec. II cannot change
what it sees.
"""

from repro.forum.engine import Board, ForumServer, Post, Thread
from repro.forum.monitor import ForumMonitor, MonitorResult, Observation
from repro.forum.scraper import (
    CampaignResult,
    ForumScraper,
    ScrapeResult,
    normalize_offset_hours,
)

__all__ = [
    "Board",
    "ForumServer",
    "Post",
    "Thread",
    "ForumMonitor",
    "MonitorResult",
    "Observation",
    "CampaignResult",
    "ForumScraper",
    "ScrapeResult",
    "normalize_offset_hours",
]
