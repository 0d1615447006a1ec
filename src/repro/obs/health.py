"""Declarative SLO health engine over observatory time-series.

A :class:`HealthRule` is a predicate over a trailing window of one
series (``mean`` of ``stream_migrations_total_rate`` over the last two
stream-days, ``last`` of ``stream_checkpoint_lag_events``, ...); a
:class:`HealthMonitor` evaluates a rule set against anything exposing
the ``series(name) -> (times, values)`` surface (a live
:class:`~repro.obs.timeseries.SeriesSampler` or a reloaded
:class:`~repro.obs.timeseries.SeriesFrame`) and runs each rule through
an ``OK -> WARN -> CRIT`` state machine.

Flap suppression is structural, not statistical: escalation needs
``trip_ticks`` *consecutive* evaluations at the higher severity, and
de-escalation needs ``clear_ticks`` consecutive calmer evaluations
(hysteresis), so one noisy sample cannot page and one quiet sample
cannot silence.  Rules whose series has no data inside the window are
skipped entirely -- absence of evidence keeps the previous state, which
also makes rules for optional subsystems (checkpointing, circuit
breakers) inert when those subsystems are off.

Transitions become :class:`HealthEvent` records: delivered to
subscribers (``on_event``), retained on ``monitor.events``, and -- when
a sink is attached -- appended to a JSONL artifact that ``darkcrowd
stats`` / ``darkcrowd dashboard`` reload via :func:`load_health_jsonl`.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any

import numpy as np

__all__ = [
    "CRIT",
    "HEALTH_KIND",
    "HEALTH_VERSION",
    "OK",
    "WARN",
    "HealthDigest",
    "HealthEvent",
    "HealthMonitor",
    "HealthRule",
    "Observatory",
    "default_streaming_rules",
    "health_digest",
    "load_health_jsonl",
    "parse_health_jsonl",
    "severity",
]

#: ``kind`` discriminator in the JSONL header line.
HEALTH_KIND = "repro-health"

#: Bumped when the artifact schema changes shape.
HEALTH_VERSION = 1

OK = "ok"
WARN = "warn"
CRIT = "crit"

_SEVERITY = {OK: 0, WARN: 1, CRIT: 2}

_AGGREGATES: dict[str, Callable[[np.ndarray], float]] = {
    "mean": lambda v: float(v.mean()),
    "max": lambda v: float(v.max()),
    "min": lambda v: float(v.min()),
    "last": lambda v: float(v[-1]),
}


def severity(state: str) -> int:
    """Numeric rank of a health state (``ok`` 0, ``warn`` 1, ``crit`` 2)."""
    return _SEVERITY[state]


@dataclass(frozen=True)
class HealthRule:
    """One SLO predicate: aggregate a series window, classify the value.

    Exactly one *direction* should be populated: ``warn_above`` /
    ``crit_above`` for ceilings (migration rate, staleness) or
    ``warn_below`` / ``crit_below`` for floors (ingest throughput).  A
    populated crit bound without its warn bound is allowed (the rule
    jumps straight from OK to CRIT).
    """

    name: str
    series: str
    window_s: float
    aggregate: str = "mean"
    warn_above: float | None = None
    crit_above: float | None = None
    warn_below: float | None = None
    crit_below: float | None = None
    #: consecutive evaluations at a *higher* severity before escalating.
    trip_ticks: int = 1
    #: consecutive evaluations at a *lower* severity before de-escalating.
    clear_ticks: int = 2

    def __post_init__(self) -> None:
        if self.aggregate not in _AGGREGATES:
            raise ValueError(
                f"rule {self.name!r}: unknown aggregate {self.aggregate!r} "
                f"(choose from {sorted(_AGGREGATES)})"
            )
        if self.window_s <= 0:
            raise ValueError(f"rule {self.name!r}: window_s must be > 0")
        if self.trip_ticks < 1 or self.clear_ticks < 1:
            raise ValueError(f"rule {self.name!r}: tick thresholds must be >= 1")
        above = self.warn_above is not None or self.crit_above is not None
        below = self.warn_below is not None or self.crit_below is not None
        if above and below:
            raise ValueError(f"rule {self.name!r}: mixes above- and below-thresholds")
        if not above and not below:
            raise ValueError(f"rule {self.name!r}: no thresholds configured")

    def classify(self, value: float) -> str:
        """Severity of a single aggregated value, ignoring hysteresis."""
        if self.crit_above is not None and value > self.crit_above:
            return CRIT
        if self.crit_below is not None and value < self.crit_below:
            return CRIT
        if self.warn_above is not None and value > self.warn_above:
            return WARN
        if self.warn_below is not None and value < self.warn_below:
            return WARN
        return OK

    def describe(self) -> str:
        bounds = []
        for label, bound in (
            ("warn>", self.warn_above),
            ("crit>", self.crit_above),
            ("warn<", self.warn_below),
            ("crit<", self.crit_below),
        ):
            if bound is not None:
                bounds.append(f"{label}{bound:g}")
        return (
            f"{self.aggregate}({self.series}) over {self.window_s:g}s "
            f"[{', '.join(bounds)}]"
        )


@dataclass(frozen=True)
class HealthEvent:
    """One state transition of one rule."""

    t: float
    rule: str
    old_state: str
    new_state: str
    value: float
    message: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "t": self.t,
            "rule": self.rule,
            "old_state": self.old_state,
            "new_state": self.new_state,
            "value": self.value,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> HealthEvent:
        return cls(
            t=float(payload["t"]),
            rule=str(payload["rule"]),
            old_state=str(payload["old_state"]),
            new_state=str(payload["new_state"]),
            value=float(payload["value"]),
            message=str(payload.get("message", "")),
        )


@dataclass
class _RuleState:
    state: str = OK
    candidate: str = OK
    streak: int = 0


class HealthMonitor:
    """Evaluate a rule set against a series source, with hysteresis."""

    def __init__(self, rules: Iterable[HealthRule]) -> None:
        self.rules: list[HealthRule] = list(rules)
        names = [rule.name for rule in self.rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rule names: {names}")
        self._states: dict[str, _RuleState] = {r.name: _RuleState() for r in self.rules}
        self._subscribers: list[Callable[[HealthEvent], None]] = []
        self.events: list[HealthEvent] = []
        self._sink: IO[str] | None = None
        self._sink_owned = False

    # -- subscriptions and sinks ------------------------------------------

    def on_event(
        self, callback: Callable[[HealthEvent], None]
    ) -> Callable[[HealthEvent], None]:
        """Register (usable as a decorator) a transition subscriber."""
        self._subscribers.append(callback)
        return callback

    def attach_sink(self, target: str | Path | IO[str]) -> None:
        """Append every subsequent transition to a JSONL artifact."""
        if self._sink is not None:
            raise RuntimeError("a health sink is already attached")
        if isinstance(target, (str, Path)):
            self._sink = Path(target).open("w", encoding="utf-8")
            self._sink_owned = True
        else:
            self._sink = target
            self._sink_owned = False
        header = {
            "kind": HEALTH_KIND,
            "version": HEALTH_VERSION,
            "rules": {rule.name: rule.describe() for rule in self.rules},
        }
        self._sink.write(json.dumps(header, sort_keys=True) + "\n")

    def close(self) -> None:
        if self._sink is None:
            return
        self._sink.flush()
        if self._sink_owned:
            self._sink.close()
        self._sink = None
        self._sink_owned = False

    # -- evaluation --------------------------------------------------------

    def state(self, rule_name: str) -> str:
        return self._states[rule_name].state

    def states(self) -> dict[str, str]:
        return {name: rs.state for name, rs in self._states.items()}

    def overall(self) -> str:
        """Worst current state across all rules."""
        return max(self.states().values(), key=severity, default=OK)

    def evaluate(self, source: Any, now: float) -> list[HealthEvent]:
        """Run every rule against *source* at time *now*.

        *source* is anything with ``series(name) -> (times, values)``.
        Returns the transitions this evaluation produced (often empty).
        """
        emitted: list[HealthEvent] = []
        for rule in self.rules:
            times, values = source.series(rule.series)
            if len(times) == 0:
                continue
            times = np.asarray(times, dtype=np.float64)
            values = np.asarray(values, dtype=np.float64)
            mask = times >= now - rule.window_s
            windowed = values[mask]
            if windowed.size == 0:
                continue
            value = _AGGREGATES[rule.aggregate](windowed)
            event = self._advance(rule, value, now)
            if event is not None:
                emitted.append(event)
        return emitted

    def _advance(self, rule: HealthRule, value: float, now: float) -> HealthEvent | None:
        rs = self._states[rule.name]
        candidate = rule.classify(value)
        if candidate == rs.state:
            rs.candidate = candidate
            rs.streak = 0
            return None
        if candidate == rs.candidate:
            rs.streak += 1
        else:
            rs.candidate = candidate
            rs.streak = 1
        needed = (
            rule.trip_ticks
            if _SEVERITY[candidate] > _SEVERITY[rs.state]
            else rule.clear_ticks
        )
        if rs.streak < needed:
            return None
        old = rs.state
        rs.state = candidate
        rs.streak = 0
        event = HealthEvent(
            t=now,
            rule=rule.name,
            old_state=old,
            new_state=candidate,
            value=value,
            message=f"{rule.describe()} = {value:g}",
        )
        self._record(event)
        return event

    def _record(self, event: HealthEvent) -> None:
        self.events.append(event)
        if self._sink is not None:
            self._sink.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
        for callback in self._subscribers:
            callback(event)


#: One stream-day, the natural time unit of replayed campaigns.
DAY_S = 86400.0


def default_streaming_rules(
    *,
    interval_s: float = 6 * 3600.0,
    prefix: str = "stream",
    throughput_floor_per_day: float | None = None,
    migration_warn_per_day: float = 0.5,
    migration_crit_per_day: float = 4.0,
    snapshot_lag_warn_events: float | None = None,
    stale_warn_ratio: float = 0.2,
    checkpoint_lag_warn_events: float | None = None,
) -> list[HealthRule]:
    """The stock SLO set for a streaming-engine campaign.

    Thresholds are phrased in per-day units (the natural scale of the
    paper's week-long observation windows) and converted to the
    per-second rates the sampler derives.  Rules whose series never
    appears (stale-confidence quarantine with drift off, checkpoint lag
    without checkpointing) simply stay OK.
    """
    window = max(2 * interval_s, DAY_S)
    rules = [
        HealthRule(
            name="migration_rate_spike",
            series=f"{prefix}_migrations_total_rate",
            window_s=window,
            aggregate="mean",
            warn_above=migration_warn_per_day / DAY_S,
            crit_above=migration_crit_per_day / DAY_S,
            trip_ticks=1,
            clear_ticks=2,
        ),
        # The drift engine's quarantine: the fraction of placements whose
        # effective confidence has decayed below the re-verification
        # threshold (heartbeat key ``stale_ratio``, drift runs only).
        HealthRule(
            name="stale_ratio_ceiling",
            series=f"{prefix}_stale_ratio",
            window_s=window,
            aggregate="last",
            warn_above=stale_warn_ratio,
            crit_above=min(2 * stale_warn_ratio, 0.95),
            trip_ticks=1,
            clear_ticks=2,
        ),
    ]
    if throughput_floor_per_day is not None:
        rules.append(
            HealthRule(
                name="ingest_throughput_floor",
                series=f"{prefix}_events_total_rate",
                window_s=window,
                aggregate="mean",
                warn_below=throughput_floor_per_day / DAY_S,
                crit_below=throughput_floor_per_day / (4 * DAY_S),
                trip_ticks=2,
                clear_ticks=2,
            )
        )
    if snapshot_lag_warn_events is not None:
        rules.append(
            HealthRule(
                name="snapshot_staleness_ceiling",
                series=f"{prefix}_snapshot_lag_events",
                window_s=window,
                aggregate="last",
                warn_above=snapshot_lag_warn_events,
                crit_above=4 * snapshot_lag_warn_events,
                trip_ticks=1,
                clear_ticks=1,
            )
        )
    if checkpoint_lag_warn_events is not None:
        rules.append(
            HealthRule(
                name="checkpoint_lag_ceiling",
                series=f"{prefix}_checkpoint_lag_events",
                window_s=window,
                aggregate="last",
                warn_above=checkpoint_lag_warn_events,
                crit_above=4 * checkpoint_lag_warn_events,
                trip_ticks=1,
                clear_ticks=1,
            )
        )
    rules.append(
        # Series name produced by SeriesSampler.bind_registry for the
        # labelled counter the breaker increments on every flip to OPEN,
        # plus the derived per-second rate suffix.  Any opening inside
        # the window is a WARN; repeated openings are a CRIT.
        HealthRule(
            name="circuit_open",
            series="repro_reliability_circuit_transitions_total{to=open}_rate",
            window_s=window,
            aggregate="max",
            warn_above=0.0,
            crit_above=2.0 / window,
            trip_ticks=1,
            clear_ticks=1,
        )
    )
    return rules


@dataclass
class Observatory:
    """One ``tick()`` surface gluing a sampler to a health monitor.

    The host loop (replay chunks, monitor polls) calls ``tick(now)``;
    when the sampler decides a sample is due, the health monitor is
    evaluated against the fresh window.  ``close()`` flushes both JSONL
    sinks.  Like everything in the observatory, no instance exists
    unless the operator asked for one, so disabled runs are untouched.
    """

    sampler: Any
    health: HealthMonitor | None = None
    events: list[HealthEvent] = field(default_factory=list)

    def tick(self, now: float) -> list[HealthEvent]:
        if not self.sampler.tick(now):
            return []
        if self.health is None:
            return []
        emitted = self.health.evaluate(self.sampler, now)
        self.events.extend(emitted)
        return emitted

    def close(self) -> None:
        self.sampler.close()
        if self.health is not None:
            self.health.close()


def parse_health_jsonl(
    text: str, source: str | Path
) -> tuple[dict[str, Any], list[HealthEvent]]:
    """A ``--health-out`` artifact's text as ``(header, events)``.

    A ``ValueError`` names *source* and the first line that is not an
    event between ``ok``/``warn``/``crit`` states.
    """
    lines = text.splitlines()
    if not lines:
        raise ValueError(f"{source}: empty health artifact")
    header = json.loads(lines[0])
    if header.get("kind") != HEALTH_KIND:
        raise ValueError(
            f"{source}: expected kind {HEALTH_KIND!r}, got {header.get('kind')!r}"
        )
    events = []
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            event = HealthEvent.from_dict(json.loads(line))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{source}: line {number}: not a health event ({exc!r})") from None
        for state in (event.old_state, event.new_state):
            if state not in _SEVERITY:
                raise ValueError(f"{source}: line {number}: unknown health state {state!r}")
        events.append(event)
    return header, events


def load_health_jsonl(
    path: str | Path,
) -> tuple[dict[str, Any], list[HealthEvent]]:
    """Reload a ``--health-out`` artifact: ``(header, events)``; see
    :func:`parse_health_jsonl`."""
    return parse_health_jsonl(Path(path).read_text(encoding="utf-8"), path)


def health_timeline(
    events: Sequence[HealthEvent], rules: Iterable[str]
) -> dict[str, list[tuple[float, str]]]:
    """Per-rule ``[(t, state), ...]`` segments reconstructed from events.

    Every rule starts OK at ``t = -inf``; each of its transitions opens
    a new segment.
    """
    out: dict[str, list[tuple[float, str]]] = {
        name: [(float("-inf"), OK)] for name in rules
    }
    for event in events:
        out.setdefault(event.rule, [(float("-inf"), OK)]).append(
            (event.t, event.new_state)
        )
    return out


@dataclass(frozen=True)
class HealthDigest:
    """What the views of a reloaded health log print besides its events.

    ``lanes`` is the :func:`health_timeline` of the header's and the
    events' rules, by rule name; ``overall`` is the worst final state.
    """

    lanes: dict[str, list[tuple[float, str]]]
    overall: str


def health_digest(header: dict[str, Any], events: Sequence[HealthEvent]) -> HealthDigest:
    """Digest ``load_health_jsonl``'s ``(header, events)``."""
    lanes = dict(sorted(health_timeline(events, header.get("rules") or {}).items()))
    finals = (segments[-1][1] for segments in lanes.values())
    return HealthDigest(lanes, max(finals, key=severity, default=OK))
