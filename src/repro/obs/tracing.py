"""In-memory span tracing: where did a geolocation run spend its time?

:func:`trace_span` is a context manager that opens a named span, nests
under whatever span is already open on the current thread, and records
wall time (``perf_counter``) and CPU time (``process_time``) when it
closes -- exception-safe: a span that dies records the error type and
still closes, and the exception propagates.  :func:`traced` wraps a whole
function the same way.

Like the metrics registry, tracing is off by default and costs one
attribute check per :func:`trace_span` call while disabled.  When enabled
(:func:`enable`), the :class:`Tracer` accumulates a forest of
:class:`Span` trees exportable two ways:

* :meth:`Tracer.to_dict` -- a plain JSON tree (the ``--trace-out`` body
  when the path does not look like a Chrome trace);
* :meth:`Tracer.to_chrome_trace` -- the Chrome trace-viewer / Perfetto
  event format (``chrome://tracing`` "traceEvents" with ``ph: "X"``
  complete events), so a run can be inspected on a real timeline UI.

:meth:`Tracer.summary` aggregates spans by name (count, total/max wall,
total CPU) -- that digest is what the
:class:`~repro.obs.manifest.RunManifest` embeds.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = [
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "enable",
    "disable",
    "use_tracer",
    "trace_span",
    "traced",
]


class Span:
    """One timed region: name, attributes, children, wall/CPU durations."""

    __slots__ = (
        "name",
        "attrs",
        "children",
        "status",
        "error",
        "start_wall",
        "wall_s",
        "cpu_s",
        "_start_perf",
        "_start_cpu",
    )

    def __init__(self, name: str, attrs: dict[str, Any], start_wall: float) -> None:
        self.name = name
        self.attrs = attrs
        self.children: list[Span] = []
        self.status = "ok"
        self.error: str | None = None
        #: Seconds since the tracer's epoch at which the span opened.
        self.start_wall = start_wall
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._start_perf = time.perf_counter()
        self._start_cpu = time.process_time()

    def close(self, error: BaseException | None = None) -> None:
        self.wall_s = time.perf_counter() - self._start_perf
        self.cpu_s = time.process_time() - self._start_cpu
        if error is not None:
            self.status = "error"
            self.error = f"{type(error).__name__}: {error}"

    def to_dict(self) -> dict[str, Any]:
        body: dict[str, Any] = {
            "name": self.name,
            "start_s": round(self.start_wall, 9),
            "wall_s": round(self.wall_s, 9),
            "cpu_s": round(self.cpu_s, 9),
            "status": self.status,
        }
        if self.attrs:
            body["attrs"] = self.attrs
        if self.error is not None:
            body["error"] = self.error
        if self.children:
            body["children"] = [child.to_dict() for child in self.children]
        return body

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()


class Tracer:
    """Accumulates span trees; one open-span stack per thread."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.roots: list[Span] = []
        self._epoch = time.perf_counter()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs: Any) -> "_SpanContext":
        """A context manager opening span *name* on entry (yielding the
        :class:`Span`) and closing it on exit, recording the error of an
        exception that escapes it, which still propagates."""
        return _SpanContext(self, name, attrs)

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def reset(self) -> None:
        with self._lock:
            self.roots = []
        self._local = threading.local()
        self._epoch = time.perf_counter()

    # -- export ------------------------------------------------------------

    def all_spans(self) -> list[Span]:
        with self._lock:
            roots = list(self.roots)
        return [span for root in roots for span in root.walk()]

    def to_dict(self) -> dict[str, Any]:
        with self._lock:
            roots = list(self.roots)
        return {"kind": "repro-trace", "spans": [root.to_dict() for root in roots]}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def to_chrome_trace(self) -> dict[str, Any]:
        """The Chrome trace-viewer document (``ph: "X"`` complete events)."""
        events = []
        for span in self.all_spans():
            args: dict[str, Any] = {"cpu_s": round(span.cpu_s, 9), **span.attrs}
            if span.error is not None:
                args["error"] = span.error
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": round(span.start_wall * 1e6, 3),
                    "dur": round(span.wall_s * 1e6, 3),
                    "pid": 1,
                    "tid": 1,
                    "cat": "repro",
                    "args": args,
                }
            )
        events.sort(key=lambda event: event["ts"])
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def summary(self) -> list[dict[str, Any]]:
        """Per-name digest (count, total/max wall, total CPU), wall-sorted."""
        by_name: dict[str, dict[str, Any]] = {}
        for span in self.all_spans():
            entry = by_name.setdefault(
                span.name,
                {"name": span.name, "count": 0, "wall_s": 0.0, "cpu_s": 0.0, "max_wall_s": 0.0, "errors": 0},
            )
            entry["count"] += 1
            entry["wall_s"] += span.wall_s
            entry["cpu_s"] += span.cpu_s
            entry["max_wall_s"] = max(entry["max_wall_s"], span.wall_s)
            if span.status == "error":
                entry["errors"] += 1
        out = sorted(by_name.values(), key=lambda entry: -entry["wall_s"])
        for entry in out:
            for key in ("wall_s", "cpu_s", "max_wall_s"):
                entry[key] = round(entry[key], 9)
        return out


class _SpanContext:
    """One :meth:`Tracer.span` call; a class rather than a generator, so a
    span costs two method calls of bookkeeping around its timed region."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span", "_stack")

    def __init__(self, tracer: Tracer, name: str, attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> Span:
        tracer = self._tracer
        stack = tracer._stack()
        span = Span(self._name, self._attrs, time.perf_counter() - tracer._epoch)
        if stack:
            stack[-1].children.append(span)
        else:
            with tracer._lock:
                tracer.roots.append(span)
        stack.append(span)
        self._span = span
        self._stack = stack
        return span

    def __exit__(self, exc_type: Any, exc: "BaseException | None", tb: Any) -> None:
        self._span.close(exc)
        self._stack.pop()


class NullTracer:
    """Disabled default; :func:`trace_span` short-circuits on ``enabled``."""

    enabled = False

    def reset(self) -> None:
        pass

    def all_spans(self) -> list[Span]:
        return []

    def to_dict(self) -> dict[str, Any]:
        return {"kind": "repro-trace", "spans": []}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def to_chrome_trace(self) -> dict[str, Any]:
        return {"traceEvents": [], "displayTimeUnit": "ms"}

    def summary(self) -> list[dict[str, Any]]:
        return []


_NULL_TRACER = NullTracer()
_tracer: Tracer | NullTracer = _NULL_TRACER

_NULL_SPAN_CONTEXT = None


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


_NULL_SPAN_CONTEXT = _NullSpanContext()


def get_tracer() -> Tracer | NullTracer:
    return _tracer


def set_tracer(tracer: Tracer | NullTracer) -> None:
    global _tracer
    _tracer = tracer


def enable() -> Tracer:
    """Install (or return the already-installed) live tracer."""
    global _tracer
    if not isinstance(_tracer, Tracer):
        _tracer = Tracer()
    return _tracer


def disable() -> None:
    set_tracer(_NULL_TRACER)


@contextmanager
def use_tracer(tracer: Tracer | NullTracer) -> Iterator:
    """Temporarily swap the active tracer (test isolation helper)."""
    previous = get_tracer()
    set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def trace_span(name: str, **attrs: Any):
    """Open a span on the active tracer; a cheap no-op while disabled."""
    tracer = _tracer
    if not tracer.enabled:
        return _NULL_SPAN_CONTEXT
    return tracer.span(name, **attrs)


def traced(name: str | None = None) -> Callable:
    """Decorator form of :func:`trace_span` (span named after the function)."""

    def decorate(fn: Callable) -> Callable:
        span_name = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer = _tracer
            if not tracer.enabled:
                return fn(*args, **kwargs)
            with tracer.span(span_name):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
