"""Activity traces: the raw material of the geolocation method.

The paper's method consumes nothing but (author id, post timestamp) pairs
-- "information that is available to every member of the forum with no
particular privilege" (Sec. I).  This module provides the containers:

* :class:`PostEvent`     -- one post by one user at one UTC instant,
* :class:`ActivityTrace` -- the ordered posting history of a single user,
* :class:`TraceSet`      -- the traces of a whole crowd.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import EmptyTraceError
from repro.timebase.clock import day_ordinal, hour_of_day, split_day_hours

if TYPE_CHECKING:
    from repro.core.types import AnyArray, FloatArray, IntArray


def id_column(user_ids: list[str], error: type[Exception]) -> "AnyArray":
    """*user_ids* as the unicode column the columnar files store; numpy
    strings drop trailing NULs, so *error* names an id that would read back
    as another, possibly colliding, one."""
    column = np.asarray(user_ids, dtype=np.str_)
    stored = column.tolist()
    if stored != user_ids:
        bad = next(u for u, kept in zip(user_ids, stored) if u != kept)
        raise error(f"user id {bad!r} ends in a NUL, which the id column drops")
    return column


@dataclass(frozen=True, order=True)
class PostEvent:
    """One post: *timestamp* is UTC seconds since the simulation epoch."""

    timestamp: float
    user_id: str = field(compare=False)

    def day(self, offset_hours: float = 0.0) -> int:
        """Civil day ordinal of the post in zone UTC+offset."""
        return day_ordinal(self.timestamp, offset_hours)

    def hour(self, offset_hours: float = 0.0) -> int:
        """Hour of day (0..23) of the post in zone UTC+offset."""
        return hour_of_day(self.timestamp, offset_hours)


class ActivityTrace:
    """The posting history of a single user, kept sorted by time."""

    __slots__ = ("user_id", "_timestamps")

    def __init__(self, user_id: str, timestamps: Iterable[float] = ()) -> None:
        self.user_id = user_id
        if isinstance(timestamps, np.ndarray):
            values = np.asarray(timestamps, dtype=float)
        else:
            values = np.asarray(list(timestamps), dtype=float)
        self._timestamps = np.sort(values)

    @classmethod
    def from_events(cls, user_id: str, events: Iterable[PostEvent]) -> "ActivityTrace":
        return cls(user_id, (event.timestamp for event in events))

    @property
    def timestamps(self) -> FloatArray:
        """Sorted UTC timestamps (read-only view)."""
        view = self._timestamps.view()
        view.flags.writeable = False
        return view

    def __len__(self) -> int:
        return int(self._timestamps.size)

    def __iter__(self) -> Iterator[PostEvent]:
        for timestamp in self._timestamps:
            yield PostEvent(float(timestamp), self.user_id)

    def __repr__(self) -> str:
        return f"ActivityTrace({self.user_id!r}, n={len(self)})"

    def is_empty(self) -> bool:
        return len(self) == 0

    def span_days(self) -> int:
        """Number of civil days (UTC) covered from first to last post."""
        if self.is_empty():
            return 0
        first = day_ordinal(float(self._timestamps[0]))
        last = day_ordinal(float(self._timestamps[-1]))
        return last - first + 1

    def shifted(self, hours: float) -> "ActivityTrace":
        """A copy with every timestamp moved by *hours* (server-offset fix)."""
        return ActivityTrace(self.user_id, self._timestamps + hours * 3600.0)

    def restricted_to_days(self, predicate: Callable[[int], bool]) -> "ActivityTrace":
        """Keep only posts whose UTC day ordinal satisfies *predicate*.

        *predicate* must be a pure function of the day: it is called once
        per distinct day of the trace, in day order, and its answer holds
        for every post of that day.  The stamps are sorted, so the days
        are too, and their distinct values are where they change.
        """
        if self.is_empty():
            return ActivityTrace(self.user_id)
        days = (self._timestamps // 86400.0).astype(int)
        first_of_day = np.empty(days.size, dtype=bool)
        first_of_day[0] = True
        np.not_equal(days[1:], days[:-1], out=first_of_day[1:])
        distinct = days[first_of_day]
        keep_day = np.fromiter(
            (predicate(int(day)) for day in distinct), dtype=bool, count=distinct.size
        )
        keep = keep_day[np.cumsum(first_of_day) - 1]
        return ActivityTrace(self.user_id, self._timestamps[keep])

    def merged_with(self, other: "ActivityTrace") -> "ActivityTrace":
        """Union of two traces for the same user."""
        if other.user_id != self.user_id:
            raise ValueError(
                f"cannot merge traces of {self.user_id!r} and {other.user_id!r}"
            )
        return ActivityTrace(
            self.user_id, np.concatenate([self._timestamps, other._timestamps])
        )

    def active_day_hours(self, offset_hours: float = 0.0) -> set[tuple[int, int]]:
        """The set of (day ordinal, hour) cells with at least one post.

        This is the support of the paper's indicator ``a_d(h)`` (Eq. 1).
        """
        days, hours = split_day_hours(self._timestamps, offset_hours)
        return set(zip(days.tolist(), hours.tolist()))


class TraceSet:
    """A crowd: a mapping from user id to :class:`ActivityTrace`."""

    def __init__(self, traces: Iterable[ActivityTrace] = ()) -> None:
        self._traces: dict[str, ActivityTrace] = {}
        for trace in traces:
            self.add(trace)

    def add(self, trace: ActivityTrace) -> None:
        existing = self._traces.get(trace.user_id)
        if existing is not None:
            trace = existing.merged_with(trace)
        self._traces[trace.user_id] = trace

    @classmethod
    def from_events(cls, events: Iterable[PostEvent]) -> "TraceSet":
        buckets: dict[str, list[float]] = {}
        for event in events:
            buckets.setdefault(event.user_id, []).append(event.timestamp)
        return cls(
            ActivityTrace(user_id, stamps) for user_id, stamps in buckets.items()
        )

    def __len__(self) -> int:
        return len(self._traces)

    def __iter__(self) -> Iterator[ActivityTrace]:
        return iter(self._traces.values())

    def __contains__(self, user_id: str) -> bool:
        return user_id in self._traces

    def __getitem__(self, user_id: str) -> ActivityTrace:
        try:
            return self._traces[user_id]
        except KeyError:
            raise EmptyTraceError(f"no trace for user {user_id!r}") from None

    def user_ids(self) -> list[str]:
        return list(self._traces)

    def total_posts(self) -> int:
        return sum(len(trace) for trace in self._traces.values())

    def columns(self) -> tuple[list[str], IntArray, FloatArray]:
        """The crowd as one stamp column: ``(user_ids, lengths, stamps)``.

        *stamps* holds every trace's sorted timestamps back to back in
        iteration order, and ``lengths[i]`` is the size of the segment of
        ``user_ids[i]``: the input of the :mod:`repro.core.kernels` Eq. 1
        kernels.  Every call concatenates afresh; the column is not
        cached, so a crowd held in memory is held once.
        """
        arrays = [trace._timestamps for trace in self._traces.values()]
        lengths = np.fromiter(map(len, arrays), dtype=np.int64, count=len(arrays))
        stamps = np.concatenate(arrays) if arrays else np.zeros(0, dtype=float)
        return list(self._traces), lengths, stamps

    def filter_users(self, predicate: Callable[["ActivityTrace"], bool]) -> "TraceSet":
        """Keep traces for which ``predicate(trace)`` is true."""
        return TraceSet(trace for trace in self if predicate(trace))

    def with_min_posts(self, threshold: int = 30) -> "TraceSet":
        """Apply the paper's active-user rule (>= *threshold* posts, Sec. IV)."""
        return self.filter_users(lambda trace: len(trace) >= threshold)

    def without_users(self, user_ids: Iterable[str]) -> "TraceSet":
        excluded = set(user_ids)
        return self.filter_users(lambda trace: trace.user_id not in excluded)

    def shifted(self, hours: float) -> "TraceSet":
        """Shift every trace by *hours* (e.g. server-offset correction)."""
        return TraceSet(trace.shifted(hours) for trace in self)

    def most_active(self, n: int) -> list[ActivityTrace]:
        """The *n* users with the most posts (Sec. V-F uses the top 5)."""
        ranked = sorted(self, key=lambda trace: (-len(trace), trace.user_id))
        return ranked[:n]

    def as_mapping(self) -> Mapping[str, ActivityTrace]:
        return dict(self._traces)
