"""Temporal-drift robustness: confidence lifecycle and change-point detection.

The paper treats every user's time zone as static, but real crowds drift:
users relocate mid-campaign, forums silently change their server clock,
and DST shifts whole profiles by an hour overnight.  A geolocator that
keeps reporting the placement it computed months ago is not wrong loudly
-- it is wrong *silently*, which at service scale is a correctness
failure.  This module makes staleness detected, quantified and
self-healing; :class:`repro.core.streaming.StreamingGeolocator` threads
it through the incremental engine.

Three mechanisms, following the ADR-003 confidence-lifecycle design
(decay + signal-driven reset + re-verification):

* :class:`UserConfidence` -- every placed user carries a confidence score
  in [0, 1] that decays passively with stream time (``decay_per_day``,
  :func:`decayed_confidence` for one record or a column of them) and is
  reset to full whenever fresh evidence re-confirms the current placement.
* :class:`ChangePointDetector` -- the active signal: the user's
  rolling-window profile (last ``window_days`` of Eq. 1 cells) is
  compared against their historical profile with the same EMD the
  placement pipeline uses; a score above ``emd_threshold`` means the
  recent behaviour no longer looks like the record.
* Re-estimation -- when a change-point fires, or confidence decays below
  ``confidence_threshold`` while the recent window disagrees with the
  cached placement, the user is re-estimated *from the recent window
  only* (the record is truncated to the window, its version bumped) and
  a :class:`ZoneMigrationEvent` is emitted through the subscriber hook,
  followed by ``reason="refine"`` corrections while the truncated record
  is still too thin to place precisely.

:class:`CompositionTimeline` records the crowd-level consequence: the
placement histogram sampled once per stream day, i.e. "composition over
time" -- the service-scale analogue of what "Reddit's Globalization over
Twenty Years" measures over two decades of subreddits.

Timestamps: detection runs on *stream* time (the event timestamps), so
replaying a checkpointed campaign is bit-reproducible; the wall-clock
stamp on emitted events is read through the injectable seam in
:mod:`repro.reliability.clocks` (never ``time.time()`` -- lint rule
DC001).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.emd import ALL_DISTANCES
from repro.core.types import BoolArray, FloatArray, IntArray
from repro.timebase.zones import ZONE_OFFSETS

__all__ = [
    "DriftConfig",
    "UserConfidence",
    "decayed_confidence",
    "ChangePointDetector",
    "ZoneMigrationEvent",
    "CompositionSample",
    "CompositionTimeline",
    "ConfidenceSummary",
]


@dataclass(frozen=True)
class DriftConfig:
    """Knobs of the drift-robustness layer (disabled when not supplied).

    Defaults are calibrated on the synthetic relocation scenarios of
    :mod:`repro.synth.drift`.  Detection is two-stage: the *windowed*
    score (recent window vs rest of record) is a cheap per-check screen,
    and the *localised* split score (record prefix vs suffix at the best
    split day) makes the decision.  A +6 h relocation's localised score
    sits around 6 while a stationary record's best split stays below ~3
    (windowed noise on a 12-to-40-cell window reaches ~3.2, which is why
    the windowed score only screens).  A 1 h DST shift scores ~1 and
    deliberately does *not* fire -- zone placement is hour-quantised and
    a DST slide rarely moves the verdict.
    """

    #: Length, in stream days, of the rolling recent-behaviour window.
    window_days: int = 30
    #: A user is checked at most once per this many stream days.  A check
    #: counts its window's cells from the day masks (O(window days)) and
    #: most stop at the evidence floors; past them it costs one EMD, and a
    #: screen hit one batched scan over the record's days.
    check_interval_days: int = 7
    #: Window-vs-history EMD above which the change-point *localisation*
    #: scan runs.  The windowed score is a cheap screen: it dilutes as
    #: post-change data accumulates into the history, so it gates the
    #: scan rather than the decision.
    screen_threshold: float = 2.0
    #: Localised split EMD (pre-change prefix vs post-change suffix of
    #: the record) above which a change-point fires.  Undiluted by
    #: mixing, so it separates cleanly: a +6 h relocation scores ~6 (a
    #: casual poster's thin record, 3.4+ after the size discount) while
    #: a stationary record's best discounted split stays below ~2.6.
    emd_threshold: float = 3.25
    #: Re-estimate when effective confidence falls below this.
    confidence_threshold: float = 0.5
    #: Passive confidence decay per stream day without re-confirmation.
    decay_per_day: float = 0.01
    #: Minimum Eq. 1 cells the window must hold before it is trusted
    #: (half a cell per window day -- casual posters must still be able
    #: to re-confirm, or their confidence decays with no path back up).
    min_window_cells: int = 12
    #: Minimum post-change cells required before a re-estimate commits; a
    #: firing signal with a thinner suffix is deferred to the next check.
    #: Higher than ``min_window_cells``: the re-placed zone is frozen
    #: into the emitted event, so it is worth waiting for more evidence.
    min_reestimate_cells: int = 24
    #: Minimum cells the pre-window history must hold before the EMD
    #: comparison is meaningful; younger records just re-confirm.
    min_history_cells: int = 48
    #: Distance used for the window-vs-history comparison.
    metric: str = "linear"

    def __post_init__(self) -> None:
        if self.window_days < 1:
            raise ValueError(f"window_days must be >= 1, got {self.window_days}")
        if self.check_interval_days < 1:
            raise ValueError(
                f"check_interval_days must be >= 1, got {self.check_interval_days}"
            )
        if self.emd_threshold < 0.0:
            raise ValueError(f"emd_threshold must be >= 0, got {self.emd_threshold}")
        if not 0.0 <= self.screen_threshold <= self.emd_threshold:
            raise ValueError(
                "screen_threshold must be in [0, emd_threshold], got "
                f"{self.screen_threshold}"
            )
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise ValueError(
                "confidence_threshold must be in [0, 1], got "
                f"{self.confidence_threshold}"
            )
        if self.decay_per_day < 0.0:
            raise ValueError(f"decay_per_day must be >= 0, got {self.decay_per_day}")
        if self.min_window_cells < 1 or self.min_history_cells < 1:
            raise ValueError("min_window_cells / min_history_cells must be >= 1")
        if self.min_reestimate_cells < self.min_window_cells:
            raise ValueError(
                "min_reestimate_cells must be >= min_window_cells, got "
                f"{self.min_reestimate_cells} < {self.min_window_cells}"
            )
        if self.metric not in ALL_DISTANCES:
            raise ValueError(
                f"unknown drift metric {self.metric!r}; options: "
                f"{sorted(ALL_DISTANCES)}"
            )

    def check_due(self, now_day: IntArray, last_check_day: IntArray) -> BoolArray:
        """Whether a lifecycle check is due at *now_day* for this config.

        The throttle predicate of the new-cell hook: a user whose last
        check ran at *last_check_day* is checked again only once
        ``check_interval_days`` stream days have elapsed.  The streaming
        engine's per-event path applies it at every opened cell; the bulk
        core evaluates it **once per (user, chunk)** against the newest
        day the chunk can reach.  When even that day is not due, no event
        of the user's chunk can fire a check, so the chunk is merged
        without per-event calls; when it is due, the user's chunk events
        replay through ``observe()`` in original order.
        """
        return now_day - last_check_day >= self.check_interval_days

    def as_dict(self) -> dict[str, Any]:
        """JSON-serialisable form (checkpoint envelope)."""
        return {
            "window_days": self.window_days,
            "check_interval_days": self.check_interval_days,
            "screen_threshold": self.screen_threshold,
            "emd_threshold": self.emd_threshold,
            "confidence_threshold": self.confidence_threshold,
            "decay_per_day": self.decay_per_day,
            "min_window_cells": self.min_window_cells,
            "min_reestimate_cells": self.min_reestimate_cells,
            "min_history_cells": self.min_history_cells,
            "metric": self.metric,
        }

    @classmethod
    def from_dict(cls, state: dict[str, Any]) -> "DriftConfig":
        return cls(
            window_days=int(state["window_days"]),
            check_interval_days=int(state["check_interval_days"]),
            screen_threshold=float(state["screen_threshold"]),
            emd_threshold=float(state["emd_threshold"]),
            confidence_threshold=float(state["confidence_threshold"]),
            decay_per_day=float(state["decay_per_day"]),
            min_window_cells=int(state["min_window_cells"]),
            min_reestimate_cells=int(state["min_reestimate_cells"]),
            min_history_cells=int(state["min_history_cells"]),
            metric=str(state["metric"]),
        )


def decayed_confidence(
    value: "float | FloatArray", as_of_day: "int | IntArray", now_day: int, decay_per_day: float
) -> FloatArray:
    """*value*, anchored at *as_of_day*, less ``decay_per_day`` per day to
    *now_day* and clamped as ``min(1.0, max(0.0, x))`` is, element-wise:
    a NaN (a checkpoint column is taken as written) reads as 0.0, stale."""
    elapsed = np.maximum(now_day - as_of_day, 0)
    decayed = value - decay_per_day * elapsed
    floored = np.where(decayed > 0.0, decayed, 0.0)
    return np.where(floored < 1.0, floored, 1.0)


@dataclass
class UserConfidence:
    """One user's confidence record: a value in [0, 1] anchored at a day.

    The *effective* confidence at any later stream day is the anchored
    value minus ``decay_per_day`` per elapsed day, clamped to [0, 1] --
    a pure function, so nothing has to tick: decay is evaluated lazily
    whenever somebody asks.
    """

    value: float = 1.0
    as_of_day: int = 0

    def effective(self, now_day: int, decay_per_day: float) -> float:
        """Confidence at *now_day* after passive decay."""
        return float(decayed_confidence(self.value, self.as_of_day, now_day, decay_per_day))

    def reset(self, day: int, value: float = 1.0) -> None:
        """Anchor the confidence at *value* (fresh evidence / re-verified)."""
        self.value = float(min(1.0, max(0.0, value)))
        self.as_of_day = int(day)


class ChangePointDetector:
    """Scores a user's recent window against their historical profile.

    Both inputs are raw Eq. 1 hour-count 24-vectors; they are normalised
    and compared with the configured EMD variant -- the same ground
    metric the placement pipeline uses, so a score of *k* reads roughly
    as "the window looks shifted by ~k hours from the record".
    """

    def __init__(self, config: DriftConfig) -> None:
        self.config = config
        self._distance = ALL_DISTANCES[config.metric]

    def score(self, window_counts: FloatArray, history_counts: FloatArray) -> float:
        """EMD between the normalised window and history profiles."""
        return float(self._distance(window_counts, history_counts))

    def split_scores(self, prefix_counts: FloatArray, suffix_counts: FloatArray) -> FloatArray:
        """Size-discounted EMD of each candidate change-point split.

        Row ``i`` of the two ``(splits, 24)`` count tables holds the
        record's prefix and suffix at split ``i``; both sides of every
        split hold cells (the change-day scan only scores splits whose
        sides reach its floor).  EMD sampling noise scales like
        ``1/sqrt(cells)``, and an argmax over a record's worth of
        candidate splits happily picks the noisiest thin side;
        discounting by ``sqrt(min_side / full)`` (capped at 1) flattens
        the noise floor across split positions so one ``emd_threshold``
        works for young and old records alike.  A genuine shift keeps its
        full score once both sides carry ``~2.5 * min_reestimate_cells``
        cells.

        The linear metric is computed row-wise (each row has the bits of
        :func:`~repro.core.emd.emd_linear` over that pair: integer-valued
        row sums are exact, and numpy's row-wise cumsum and sum take a row
        in the order the 1-D calls do); other metrics map their 1-D
        distance over the rows.
        """
        prefix_cells = prefix_counts.sum(axis=1)
        suffix_cells = suffix_counts.sum(axis=1)
        if self.config.metric == "linear":
            diff = prefix_counts / prefix_cells[:, None] - suffix_counts / suffix_cells[:, None]
            distances = np.abs(np.cumsum(diff, axis=1)).sum(axis=1)
        else:
            distances = np.array(
                [self._distance(p, q) for p, q in zip(prefix_counts, suffix_counts)],
                dtype=float,
            )
        thin_side = np.minimum(prefix_cells, suffix_cells)
        full_evidence = 2.5 * self.config.min_reestimate_cells
        return distances * np.minimum(1.0, np.sqrt(thin_side / full_evidence))

    def fires(self, score: float) -> bool:
        return score > self.config.emd_threshold

    def has_evidence(self, window_cells: float, history_cells: float) -> tuple[bool, bool]:
        """(window trustworthy, history comparable) under the cell floors,
        from the cell counts of the window and of the pre-window history."""
        window_ok = window_cells >= self.config.min_window_cells
        history_ok = history_cells >= self.config.min_history_cells
        return window_ok, history_ok


@dataclass(frozen=True)
class ZoneMigrationEvent:
    """One detected placement change for one user.

    ``old_offset`` / ``new_offset`` are UTC offsets in hours (``None``
    when the user was, or became, unplaced -- below the activity
    threshold or flat-filtered).  ``day`` is the stream day the change
    was detected; ``wall_time`` is the wall-clock stamp taken through the
    injectable seam at emission.  ``emd_score`` and ``window_cells`` are
    the evidence behind the decision.

    ``reason`` is ``"change-point"`` (the localised split score fired),
    ``"confidence"`` (decayed confidence plus a disagreeing window), or
    ``"refine"`` -- a correction to an earlier migration's zone, emitted
    as the truncated record accumulates evidence.  Consumers tracking a
    user's current zone should apply events in order; the last event's
    ``new_offset`` converges to what a from-scratch re-fit would say.
    """

    user_id: str
    old_offset: "int | None"
    new_offset: "int | None"
    day: int
    emd_score: float
    confidence: float
    window_cells: int
    reason: str
    record_version: int
    wall_time: float

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form (one line of the migrations JSONL)."""
        return {
            "user_id": self.user_id,
            "old_offset": self.old_offset,
            "new_offset": self.new_offset,
            "day": self.day,
            "emd_score": self.emd_score,
            "confidence": self.confidence,
            "window_cells": self.window_cells,
            "reason": self.reason,
            "record_version": self.record_version,
            "wall_time": self.wall_time,
        }


@dataclass(frozen=True)
class ConfidenceSummary:
    """Crowd-level confidence digest carried by every drift-aware snapshot."""

    #: Users past the activity threshold (the ones with a placement).
    n_tracked: int
    #: Mean / minimum effective confidence across tracked users (NaN when
    #: nobody is tracked yet).
    mean: float
    minimum: float
    #: Tracked users whose effective confidence is below the threshold.
    n_stale: int
    #: The threshold the staleness count was taken against.
    threshold: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "n_tracked": self.n_tracked,
            "mean": self.mean,
            "minimum": self.minimum,
            "n_stale": self.n_stale,
            "threshold": self.threshold,
        }


@dataclass(frozen=True)
class CompositionSample:
    """The placement histogram at one stream day."""

    day: int
    n_active: int
    #: Per-zone crowd fractions (sums to 1; all zeros while nobody is placed).
    fractions: tuple[float, ...]

    def top_zones(self, n: int = 3) -> list[tuple[int, float]]:
        order = np.argsort(self.fractions)[::-1][:n]
        return [(ZONE_OFFSETS[i], self.fractions[i]) for i in order]


class CompositionTimeline:
    """Crowd composition over time: one histogram sample per stream day.

    Samples are recorded by the streaming engine at snapshot time; a
    second snapshot on the same stream day replaces that day's sample, so
    the timeline length is bounded by campaign days, not snapshot calls.
    Round-trips through checkpoints as two integer columns
    (:meth:`arrays` / :meth:`from_arrays`), which the JSON checkpoint
    renders as lists.
    """

    def __init__(self) -> None:
        self._days: list[int] = []
        self._hists: list[IntArray] = []

    def __len__(self) -> int:
        return len(self._days)

    def record(self, day: int, hist: IntArray) -> None:
        """Record (or replace) the sample for stream day *day*."""
        snapshot = np.array(hist, dtype=np.int64, copy=True)
        if self._days and self._days[-1] == day:
            self._hists[-1] = snapshot
            return
        self._days.append(int(day))
        self._hists.append(snapshot)

    def _sample(self, index: int) -> CompositionSample:
        hist = self._hists[index]
        total = int(hist.sum())
        if total > 0:
            fractions = tuple((hist / total).tolist())
        else:
            fractions = tuple(0.0 for _ in ZONE_OFFSETS)
        return CompositionSample(
            day=self._days[index], n_active=total, fractions=fractions
        )

    def samples(self) -> list[CompositionSample]:
        return [self._sample(i) for i in range(len(self._days))]

    def final(self) -> "CompositionSample | None":
        """The most recent sample, or None while nothing was recorded."""
        if not self._days:
            return None
        return self._sample(len(self._days) - 1)

    # -- checkpoint round-trip --------------------------------------------

    def arrays(self) -> tuple[IntArray, IntArray]:
        """(days, hists) integer columns for the checkpoint."""
        days = np.asarray(self._days, dtype=np.int64)
        if self._hists:
            hists = np.vstack(self._hists).astype(np.int64)
        else:
            hists = np.zeros((0, len(ZONE_OFFSETS)), dtype=np.int64)
        return days, hists

    @classmethod
    def from_arrays(cls, days: IntArray, hists: IntArray) -> "CompositionTimeline":
        timeline = cls()
        days = np.asarray(days, dtype=np.int64)
        hists = np.asarray(hists, dtype=np.int64)
        if hists.ndim != 2 or hists.shape[1] != len(ZONE_OFFSETS):
            raise ValueError(
                f"timeline hists must be (n, {len(ZONE_OFFSETS)}), "
                f"got {hists.shape}"
            )
        if days.size != hists.shape[0]:
            raise ValueError("timeline days and hists disagree on length")
        for index in range(int(days.size)):
            timeline._days.append(int(days[index]))
            timeline._hists.append(hists[index].copy())
        return timeline
