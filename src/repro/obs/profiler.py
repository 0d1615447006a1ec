"""Wall-clock sampling profiler: collapsed stacks, near-zero overhead.

Deterministic instrumentation (histograms, spans) tells you how long a
*known* operation took; a sampling profiler tells you where the time
went when you did not know what to instrument.  This one is built for
the streaming campaign's constraints:

* **Sampling, not tracing.**  A daemon thread wakes every
  ``interval_s`` (injectable), grabs the target thread's frame via
  ``sys._current_frames()``, and tallies the collapsed call stack.  At
  the default 10 ms interval the target pays nothing on its own hot
  path -- the cost is one stack walk per sample on the profiler thread,
  which is what keeps the observatory inside its <5% overhead gate.
* **Collapsed-stack output.**  ``collapsed()`` returns the
  ``root;caller;leaf count`` mapping Brendan Gregg's flamegraph.pl and
  speedscope ingest directly; ``hotspots()`` digests it into a top-N
  table (self and cumulative samples per frame) for the dashboard and
  ``darkcrowd stats``.
* **Testable without sleeping.**  The background thread is a
  convenience wrapper around :meth:`sample_once`, which tests call
  directly against a synthetic frame -- no timing assumptions, no
  flaky sleeps.

Like the rest of the observatory, nothing here is constructed unless
``--profile-out`` is passed, so disabled runs are bit-identical.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path
from types import FrameType
from typing import Any

__all__ = [
    "PROFILE_KIND",
    "PROFILE_VERSION",
    "SamplingProfiler",
    "check_profile",
    "load_profile",
]

#: ``kind`` discriminator in the JSON artifact.
PROFILE_KIND = "repro-profile"

#: Bumped when the artifact schema changes shape.
PROFILE_VERSION = 1

#: Frames deeper than this are truncated (keeps keys bounded).
MAX_DEPTH = 64


def _frame_label(frame: FrameType) -> str:
    code = frame.f_code
    module = Path(code.co_filename).stem or "?"
    return f"{module}.{code.co_name}"


def collapse_frame(frame: FrameType, max_depth: int = MAX_DEPTH) -> tuple[str, ...]:
    """Root-first tuple of frame labels for one captured stack."""
    labels: list[str] = []
    current: FrameType | None = frame
    while current is not None and len(labels) < max_depth:
        labels.append(_frame_label(current))
        current = current.f_back
    labels.reverse()
    return tuple(labels)


class SamplingProfiler:
    """Periodic stack sampler for one target thread.

    Usable as a context manager::

        with SamplingProfiler(interval_s=0.01) as profiler:
            expensive_pipeline()
        profiler.write(out_dir / "run.profile.json")

    ``start()`` targets the *calling* thread by default; pass
    ``thread_ident`` to watch another one.  ``stop()`` joins the
    sampler thread, after which the tallies are stable to read.
    """

    def __init__(self, interval_s: float = 0.01, *, max_depth: int = MAX_DEPTH) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self.interval_s = float(interval_s)
        self.max_depth = int(max_depth)
        self._counts: dict[tuple[str, ...], int] = {}
        self._n_samples = 0
        self._target_ident: int | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self, thread_ident: int | None = None) -> None:
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        ident = thread_ident if thread_ident is not None else threading.get_ident()
        self._target_ident = ident
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None

    def __enter__(self) -> SamplingProfiler:
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample_once()

    # -- sampling ----------------------------------------------------------

    def sample_once(self, frame: FrameType | None = None) -> bool:
        """Record one sample; returns False if the target frame is gone.

        Tests pass a *frame* directly; the background loop captures the
        target thread's live frame.
        """
        if frame is None:
            if self._target_ident is None:
                return False
            frame = sys._current_frames().get(self._target_ident)
            if frame is None:
                return False
        stack = collapse_frame(frame, self.max_depth)
        self._counts[stack] = self._counts.get(stack, 0) + 1
        self._n_samples += 1
        return True

    # -- digestion ---------------------------------------------------------

    @property
    def n_samples(self) -> int:
        return self._n_samples

    def collapsed(self) -> dict[str, int]:
        """``"root;caller;leaf" -> samples`` in flamegraph collapsed format."""
        return {";".join(stack): count for stack, count in sorted(self._counts.items())}

    def hotspots(self, n: int = 10) -> list[dict[str, Any]]:
        """Top-*n* frames by self samples (leaf time), with cumulative."""
        self_counts: dict[str, int] = {}
        total_counts: dict[str, int] = {}
        for stack, count in self._counts.items():
            if not stack:
                continue
            self_counts[stack[-1]] = self_counts.get(stack[-1], 0) + count
            for label in set(stack):
                total_counts[label] = total_counts.get(label, 0) + count
        ranked = sorted(
            total_counts,
            key=lambda label: (-self_counts.get(label, 0), -total_counts[label], label),
        )
        total = max(self._n_samples, 1)
        return [
            {
                "frame": label,
                "self_samples": self_counts.get(label, 0),
                "total_samples": total_counts[label],
                "self_fraction": self_counts.get(label, 0) / total,
            }
            for label in ranked[:n]
        ]

    # -- persistence -------------------------------------------------------

    def to_dict(self, top: int = 20) -> dict[str, Any]:
        return {
            "kind": PROFILE_KIND,
            "version": PROFILE_VERSION,
            "interval_s": self.interval_s,
            "n_samples": self._n_samples,
            "collapsed": self.collapsed(),
            "hotspots": self.hotspots(top),
        }

    def to_collapsed_text(self) -> str:
        """The raw ``stack count`` lines flamegraph.pl consumes."""
        lines = [f"{stack} {count}" for stack, count in self.collapsed().items()]
        return "\n".join(lines) + ("\n" if lines else "")

    def write(self, path: str | Path) -> Path:
        """JSON artifact, or raw collapsed text for ``*.collapsed`` paths."""
        path = Path(path)
        if path.suffix == ".collapsed":
            path.write_text(self.to_collapsed_text(), encoding="utf-8")
        else:
            path.write_text(json.dumps(self.to_dict(), indent=2), encoding="utf-8")
        return path


def check_profile(payload: dict[str, Any], source: str | Path) -> dict[str, Any]:
    """A parsed ``--profile-out`` document, once its kind is checked."""
    if payload.get("kind") != PROFILE_KIND:
        raise ValueError(
            f"{source}: expected kind {PROFILE_KIND!r}, got {payload.get('kind')!r}"
        )
    return payload


def load_profile(path: str | Path) -> dict[str, Any]:
    """Reload a ``--profile-out`` JSON artifact, validating its kind."""
    return check_profile(json.loads(Path(path).read_text(encoding="utf-8")), path)
