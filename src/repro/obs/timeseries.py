"""Metric time-series: ring-buffered samples of the live pipeline.

PR 4's :mod:`repro.obs.metrics` answers "what is the counter *now*"; a
week-scale forum campaign needs "how has it *moved*" -- throughput sag,
a migration burst, snapshot staleness growing while an operator is not
looking.  This module adds the time dimension without touching the hot
path:

* :class:`SeriesBuffer` -- a fixed-capacity ring of ``(t, value)``
  pairs.  Capacity is the retention mechanism: pushing into a full ring
  overwrites the oldest sample, so memory is bounded no matter how long
  a campaign runs.
* :class:`SeriesSampler` -- a caller-driven sampler on an injectable
  clock.  Nothing inside spawns threads or reads wall time; the host
  loop calls :meth:`SeriesSampler.tick` with *its* notion of "now"
  (stream seconds during a replay, campaign UTC during a monitor run)
  and the sampler decides whether ``interval_s`` has elapsed.  Sources
  are plain callables (engine heartbeat gauges, registry counters);
  counters are additionally derived into ``<name>_rate`` series
  (per-second deltas between consecutive samples).
* JSONL persistence -- :meth:`SeriesSampler.attach_sink` appends one
  line per sample as it happens (crash-safe for long campaigns);
  :func:`load_series_jsonl` reloads the artifact for ``darkcrowd
  stats`` / ``darkcrowd dashboard``.

The subsystem follows the NullRegistry philosophy: no sampler object is
ever constructed unless the operator passes ``--series-out``, so
disabled runs execute exactly the pre-observatory code.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Iterable, Mapping
from pathlib import Path
from typing import IO, Any

import numpy as np

__all__ = [
    "SERIES_KIND",
    "SERIES_VERSION",
    "SeriesBuffer",
    "SeriesFrame",
    "SeriesSampler",
    "load_series_jsonl",
    "parse_series_jsonl",
]

#: ``kind`` discriminator in the JSONL header line.
SERIES_KIND = "repro-series"

#: Bumped when the artifact schema changes shape.
SERIES_VERSION = 1

#: Default ring capacity -- at the default 6-hour stream-time interval
#: this retains about 2.8 years of campaign, far past any scenario.
DEFAULT_CAPACITY = 4096


class SeriesBuffer:
    """Fixed-capacity ring of ``(t, value)`` samples, oldest evicted first."""

    __slots__ = ("name", "capacity", "_times", "_values", "_size", "_head")

    def __init__(self, name: str, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"series capacity must be >= 1, got {capacity}")
        self.name = name
        self.capacity = int(capacity)
        self._times = np.empty(self.capacity, dtype=np.float64)
        self._values = np.empty(self.capacity, dtype=np.float64)
        self._size = 0
        self._head = 0  # next write slot

    def __len__(self) -> int:
        return self._size

    def push(self, t: float, value: float) -> None:
        self._times[self._head] = t
        self._values[self._head] = value
        self._head = (self._head + 1) % self.capacity
        if self._size < self.capacity:
            self._size += 1

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(times, values)`` copies in chronological order."""
        if self._size < self.capacity:
            order = slice(0, self._size)
            return self._times[order].copy(), self._values[order].copy()
        idx = (np.arange(self.capacity) + self._head) % self.capacity
        return self._times[idx], self._values[idx]

    def window(self, since: float) -> tuple[np.ndarray, np.ndarray]:
        """Samples with ``t >= since``, chronological."""
        times, values = self.arrays()
        mask = times >= since
        return times[mask], values[mask]

    def last(self) -> tuple[float, float] | None:
        if self._size == 0:
            return None
        slot = (self._head - 1) % self.capacity
        return float(self._times[slot]), float(self._values[slot])


class SeriesSampler:
    """Caller-driven sampler: callables in, ring-buffered series out.

    Two source flavours:

    * ``add_gauge(name, fn)`` -- ``fn()`` is recorded verbatim.
    * ``add_counter(name, fn)`` -- the raw cumulative value is recorded
      under *name* and a derived per-second rate under ``<name>_rate``
      (first sample has no predecessor, so the rate series starts one
      sample late).

    ``bind_streaming_engine`` / ``bind_registry`` register the standard
    source sets.  All sampling happens inside :meth:`sample`; sources
    that raise are dropped for that sample only (a dead gauge must not
    kill the campaign).  Samples whose value is non-finite are skipped.
    """

    def __init__(
        self,
        *,
        interval_s: float = 6 * 3600.0,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self.interval_s = float(interval_s)
        self.capacity = int(capacity)
        self._gauges: dict[str, Callable[[], float]] = {}
        self._counters: dict[str, Callable[[], float]] = {}
        self._dynamic: list[Callable[[], Mapping[str, float]]] = []
        self._buffers: dict[str, SeriesBuffer] = {}
        self._last_counter: dict[str, tuple[float, float]] = {}
        self._last_sample_t: float | None = None
        self._sink: IO[str] | None = None
        self._sink_owned = False
        self._n_samples = 0

    # -- source registration ----------------------------------------------

    def add_gauge(self, name: str, fn: Callable[[], float]) -> None:
        self._gauges[name] = fn

    def add_counter(self, name: str, fn: Callable[[], float]) -> None:
        self._counters[name] = fn

    def add_dynamic(self, fn: Callable[[], Mapping[str, float]]) -> None:
        """A source returning a whole ``{series: value}`` mapping per sample.

        Every value is treated as a gauge; use this for sources whose
        series set is not known up front (e.g. a labelled registry).
        """
        self._dynamic.append(fn)

    def bind_streaming_engine(self, engine: Any, prefix: str = "stream") -> None:
        """Register the standard heartbeat series of a streaming engine.

        *engine* needs only a ``heartbeat()`` returning a flat
        ``{name: float}`` mapping (see
        :meth:`repro.core.streaming.StreamingGeolocator.heartbeat`);
        cumulative series (``*_total``) get derived rates.
        """

        cache: dict[str, float] = {}

        def _heartbeat() -> Mapping[str, float]:
            cache.clear()
            cache.update({k: float(v) for k, v in engine.heartbeat().items()})
            return {f"{prefix}_{key}": value for key, value in cache.items()}

        # sample() runs dynamic sources before counters, so the counter
        # readers see the heartbeat captured this very sample (one
        # heartbeat() call per tick, not one per cumulative series).
        self.add_dynamic(_heartbeat)
        for key in ("events_total", "migrations_total"):

            def _read(key: str = key) -> float:
                return cache.get(key, 0.0)

            self.add_counter(f"{prefix}_{key}", _read)

    def bind_registry(self, registry: Any) -> None:
        """Sample every counter and gauge of a live metrics registry.

        Series are named ``<metric>{k=v,...}`` so labelled metrics stay
        distinct.  Counters get derived ``_rate`` series like explicit
        counter sources; histograms are skipped (their percentiles live
        in the final metrics snapshot).
        """

        def _sweep() -> Mapping[str, float]:
            out: dict[str, float] = {}
            snap = registry.snapshot()
            for entry in snap.get("gauges", ()):
                out[_series_name(entry)] = float(entry["value"])
            for entry in snap.get("counters", ()):
                name = _series_name(entry)
                if name not in self._counters:
                    self.add_counter(name, _RegistryCounterReader(registry, entry))
            return out

        self.add_dynamic(_sweep)

    # -- sampling ----------------------------------------------------------

    def due(self, now: float) -> bool:
        if self._last_sample_t is None:
            return True
        return now - self._last_sample_t >= self.interval_s

    def tick(self, now: float) -> bool:
        """Sample if ``interval_s`` has elapsed since the last sample."""
        if not self.due(now):
            return False
        self.sample(now)
        return True

    def sample(self, now: float) -> dict[str, float]:
        """Sample every source at time *now* unconditionally."""
        row: dict[str, float] = {}
        for fn in self._dynamic:
            try:
                row.update(fn())
            except Exception:
                continue
        for name, fn in self._gauges.items():
            try:
                row[name] = float(fn())
            except Exception:
                continue
        for name, fn in list(self._counters.items()):
            try:
                value = float(fn())
            except Exception:
                continue
            row[name] = value
            previous = self._last_counter.get(name)
            self._last_counter[name] = (now, value)
            if previous is not None and now > previous[0]:
                row[f"{name}_rate"] = (value - previous[1]) / (now - previous[0])
        row = {k: v for k, v in row.items() if math.isfinite(v)}
        for name, value in row.items():
            buffer = self._buffers.get(name)
            if buffer is None:
                buffer = self._buffers[name] = SeriesBuffer(name, self.capacity)
            buffer.push(now, value)
        self._last_sample_t = now
        self._n_samples += 1
        if self._sink is not None:
            line = json.dumps({"t": now, "values": row}, sort_keys=True)
            self._sink.write(line + "\n")
        return row

    # -- access ------------------------------------------------------------

    @property
    def n_samples(self) -> int:
        return self._n_samples

    def names(self) -> list[str]:
        return sorted(self._buffers)

    def series(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """``(times, values)`` for *name*; empty arrays if never sampled."""
        buffer = self._buffers.get(name)
        if buffer is None:
            empty = np.empty(0, dtype=np.float64)
            return empty, empty.copy()
        return buffer.arrays()

    def last(self, name: str) -> tuple[float, float] | None:
        buffer = self._buffers.get(name)
        return None if buffer is None else buffer.last()

    # -- persistence -------------------------------------------------------

    def attach_sink(self, target: str | Path | IO[str]) -> None:
        """Stream every subsequent sample to *target* as JSONL.

        Writes the header line immediately.  A path is opened (and later
        closed by :meth:`close`); a file object is borrowed.
        """
        if self._sink is not None:
            raise RuntimeError("a series sink is already attached")
        if isinstance(target, (str, Path)):
            self._sink = Path(target).open("w", encoding="utf-8")
            self._sink_owned = True
        else:
            self._sink = target
            self._sink_owned = False
        header = {
            "kind": SERIES_KIND,
            "version": SERIES_VERSION,
            "interval_s": self.interval_s,
            "capacity": self.capacity,
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

    def write_jsonl(self, path: str | Path) -> Path:
        """One-shot dump of the buffered samples (header + one line each)."""
        times: set[float] = set()
        for buffer in self._buffers.values():
            ts, _ = buffer.arrays()
            times.update(float(t) for t in ts)
        path = Path(path)
        with path.open("w", encoding="utf-8") as fp:
            header = {
                "kind": SERIES_KIND,
                "version": SERIES_VERSION,
                "interval_s": self.interval_s,
                "capacity": self.capacity,
            }
            fp.write(json.dumps(header, sort_keys=True) + "\n")
            for t in sorted(times):
                row = {}
                for name, buffer in self._buffers.items():
                    ts, vs = buffer.arrays()
                    hit = np.nonzero(ts == t)[0]
                    if hit.size:
                        row[name] = float(vs[hit[-1]])
                fp.write(json.dumps({"t": t, "values": row}, sort_keys=True) + "\n")
        return path


class _RegistryCounterReader:
    """Re-reads one labelled counter from a registry snapshot entry."""

    __slots__ = ("_registry", "_name", "_labels")

    def __init__(self, registry: Any, entry: Mapping[str, Any]) -> None:
        self._registry = registry
        self._name = entry["name"]
        self._labels = dict(entry["labels"])

    def __call__(self) -> float:
        return float(self._registry.counter(self._name, **self._labels).value)


def _series_name(entry: Mapping[str, Any]) -> str:
    labels = entry.get("labels") or {}
    if not labels:
        return str(entry["name"])
    body = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{entry['name']}{{{body}}}"


class SeriesFrame:
    """Reloaded series artifact: the read-side twin of a sampler.

    Exposes the same ``names()`` / ``series()`` / ``last()`` surface the
    :class:`~repro.obs.health.HealthMonitor` and the dashboard consume,
    so health rules can be re-evaluated offline against a persisted run.
    """

    def __init__(
        self,
        header: Mapping[str, Any],
        rows: Iterable[Mapping[str, Any]],
    ) -> None:
        self.header = dict(header)
        self.interval_s = float(self.header.get("interval_s", 0.0) or 0.0)
        staged: dict[str, list[tuple[float, float]]] = {}
        self.times: list[float] = []
        for row in rows:
            t = float(row["t"])
            self.times.append(t)
            for name, value in row.get("values", {}).items():
                staged.setdefault(str(name), []).append((t, float(value)))
        self._series: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for name, pairs in staged.items():
            ts = np.array([p[0] for p in pairs], dtype=np.float64)
            vs = np.array([p[1] for p in pairs], dtype=np.float64)
            self._series[name] = (ts, vs)

    def __len__(self) -> int:
        return len(self.times)

    def names(self) -> list[str]:
        return sorted(self._series)

    def series(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        pair = self._series.get(name)
        if pair is None:
            empty = np.empty(0, dtype=np.float64)
            return empty, empty.copy()
        return pair[0].copy(), pair[1].copy()

    def last(self, name: str) -> tuple[float, float] | None:
        pair = self._series.get(name)
        if pair is None or pair[0].size == 0:
            return None
        return float(pair[0][-1]), float(pair[1][-1])


def parse_series_jsonl(text: str, source: str | Path) -> SeriesFrame:
    """A ``--series-out`` artifact's text as a frame; ``ValueError`` names *source*."""
    lines = text.splitlines()
    if not lines:
        raise ValueError(f"{source}: empty series artifact")
    header = json.loads(lines[0])
    if header.get("kind") != SERIES_KIND:
        raise ValueError(
            f"{source}: expected kind {SERIES_KIND!r}, got {header.get('kind')!r}"
        )
    rows = [json.loads(line) for line in lines[1:] if line.strip()]
    return SeriesFrame(header, rows)


def load_series_jsonl(path: str | Path) -> SeriesFrame:
    """Reload a ``--series-out`` artifact; raises ``ValueError`` on shape."""
    return parse_series_jsonl(Path(path).read_text(encoding="utf-8"), path)
