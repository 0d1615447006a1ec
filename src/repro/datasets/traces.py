"""Labeled datasets and trace serialisation.

:class:`LabeledDataset` is the ground-truth container mirroring the
paper's Twitter dataset: per-region crowds of activity traces with the
region verified ("hometown/country retrievable from their Twitter
profile").  Serialisation uses a line-oriented JSON format holding only
(user id, timestamps) -- the same minimal information the paper's ethics
section commits to storing.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Mapping
from pathlib import Path

import numpy as np

from repro.core.events import ActivityTrace, TraceSet
from repro.core.kernels import valid_stamps
from repro.core.profiles import (
    Profile,
    build_crowd_profile,
    build_user_profile,
    build_user_profile_civil,
)
from repro.core.reference import ReferenceProfiles
from repro.core.types import FloatArray
from repro.errors import DatasetError
from repro.timebase.calendar_utils import HolidayCalendar
from repro.timebase.zones import Region, get_region


class LabeledDataset:
    """Per-region crowds with verified origin (the Twitter-grab stand-in)."""

    def __init__(self, crowds: Mapping[str, TraceSet]) -> None:
        self._crowds: dict[str, TraceSet] = {}
        for key, traces in crowds.items():
            get_region(key)  # validates the key
            self._crowds[key] = traces

    def __len__(self) -> int:
        return len(self._crowds)

    def __contains__(self, key: str) -> bool:
        return key in self._crowds

    def __iter__(self) -> Iterator[str]:
        return iter(self._crowds)

    def region_keys(self) -> list[str]:
        return list(self._crowds)

    def region(self, key: str) -> Region:
        return get_region(key)

    def crowd(self, key: str) -> TraceSet:
        try:
            return self._crowds[key]
        except KeyError:
            raise DatasetError(f"region {key!r} not in dataset") from None

    def total_users(self) -> int:
        return sum(len(traces) for traces in self._crowds.values())

    def total_posts(self) -> int:
        return sum(traces.total_posts() for traces in self._crowds.values())

    def with_min_posts(self, threshold: int = 30) -> "LabeledDataset":
        """Apply the paper's >= 30 posts active-user rule to every crowd."""
        return LabeledDataset(
            {
                key: traces.with_min_posts(threshold)
                for key, traces in self._crowds.items()
            }
        )

    def without_holidays(self, calendar: HolidayCalendar) -> "LabeledDataset":
        """Drop posts on (windows around) holidays, per Sec. IV's polishing."""
        return LabeledDataset(
            {
                key: TraceSet(
                    trace.restricted_to_days(
                        lambda ordinal: not calendar.is_holiday(ordinal)
                    )
                    for trace in traces
                )
                for key, traces in self._crowds.items()
            }
        )

    def merged(self, keys: Iterable[str] | None = None) -> TraceSet:
        """Union of the selected crowds (default: all) as one anonymous set."""
        selected = list(keys) if keys is not None else self.region_keys()
        combined = TraceSet()
        for key in selected:
            for trace in self.crowd(key):
                combined.add(trace)
        return combined

    def crowd_profile(self, key: str, *, local_time: bool = True) -> Profile:
        """Eq. 2 crowd profile of one region.

        With ``local_time=True`` the profile is built against the region's
        civil local clock, DST included -- the paper "considered daylight
        saving time for all regions where it is used" (how Fig. 2(a) is
        plotted).  Otherwise the profile stays on UTC clocks.
        """
        region = self.region(key)
        crowd = self.crowd(key)
        if len(crowd) == 0:
            raise DatasetError(f"region {key!r} has no users")
        if local_time:
            return build_crowd_profile(
                build_user_profile_civil(trace, region) for trace in crowd
            )
        return build_crowd_profile(build_user_profile(trace) for trace in crowd)

    def generic_profile(self, keys: Iterable[str] | None = None) -> Profile:
        """The paper's generic profile: region crowds aligned and averaged.

        Each region's civil-local-time crowd profile already lives in the
        canonical local frame, so the generic profile is their plain
        (user-count weighted) average.
        """
        selected = list(keys) if keys is not None else self.region_keys()
        weighted: list[np.ndarray] = []
        for key in selected:
            crowd = self.crowd(key)
            if len(crowd) == 0:
                continue
            weighted.append(self.crowd_profile(key).mass * len(crowd))
        if not weighted:
            raise DatasetError("no users in the selected regions")
        return Profile(np.sum(weighted, axis=0))

    def reference_profiles(
        self, keys: Iterable[str] | None = None
    ) -> ReferenceProfiles:
        """Data-driven time-zone references (the paper's construction).

        Building the references from Eq. 1 profiles -- rather than from the
        parametric curve -- matters: Eq. 1 counts active day-hours, which
        saturates peak hours, and the anonymous users being placed are
        profiled the same way, so the saturation cancels out.
        """
        return ReferenceProfiles(self.generic_profile(keys))

    def dst_normalized_crowd(self, key: str) -> TraceSet:
        """The region's traces with timestamps moved to *standard* time.

        During DST the region's civil clock runs ahead, so a fixed civil
        habit lands one hour *earlier* in UTC; adding the DST hour back
        makes a full-year trace profile as if the region never changed
        clocks.  Used by the validation placements (Figs. 3-5), where
        ground truth makes the correction possible.  Each trace's day
        numbers come from one floor division and their DST hours from one
        :meth:`~repro.timebase.dst.DstRule.offset_adjustments` call.
        """
        rule = self.region(key).dst_rule
        normalized = TraceSet()
        for trace in self.crowd(key):
            days = np.floor_divide(trace.timestamps, 86400.0).astype(np.int64)
            stamps = trace.timestamps + rule.offset_adjustments(days) * 3600.0
            normalized.add(ActivityTrace(trace.user_id, stamps))
        return normalized


def _check_stamps(user: str, values: FloatArray) -> None:
    """The format's stamp rule, else DatasetError: the intake rule
    (:func:`~repro.core.kernels.valid_stamps`) and nonnegative."""
    if values.size and not np.all(np.isfinite(values)):
        raise DatasetError(f"user {user!r}: non-finite timestamp")
    if values.size and not valid_stamps(values).all():
        extreme = values[np.argmax(np.abs(values))]
        raise DatasetError(f"user {user!r}: out-of-range timestamp {extreme}")
    if values.size and float(values.min()) < 0.0:
        raise DatasetError(f"user {user!r}: negative timestamp {values.min()}")


def save_trace_set(traces: TraceSet, path: "str | Path") -> None:
    """Write one JSON line per user: {"user": ..., "timestamps": [...]}.

    Refuses, with the :class:`DatasetError` :func:`load_trace_set` would
    raise, any trace holding a non-finite, out-of-range or negative stamp
    -- before the file is opened, so an existing file at *path* stays as
    it was.
    """
    for trace in traces:
        _check_stamps(trace.user_id, trace.timestamps)
    destination = Path(path)
    with destination.open("w", encoding="utf-8") as handle:
        for trace in traces:
            record = {
                "user": trace.user_id,
                "timestamps": [float(ts) for ts in trace.timestamps],
            }
            handle.write(json.dumps(record) + "\n")


def _parse_trace_line(line: str) -> ActivityTrace:
    """Decode and validate one JSONL record into an :class:`ActivityTrace`.

    Raises :class:`DatasetError` on anything malformed -- truncated JSON,
    wrong field types, non-finite, out-of-range or negative timestamps --
    never a bare ``KeyError``/``ValueError`` from deep inside the decoder.
    """
    try:
        record = json.loads(line)
    except ValueError as exc:
        raise DatasetError(f"unparseable JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise DatasetError(f"record is not an object: {type(record).__name__}")
    user = record.get("user")
    if not isinstance(user, str) or not user:
        raise DatasetError(f"missing or invalid 'user' field: {user!r}")
    stamps = record.get("timestamps")
    if not isinstance(stamps, list) or not all(
        isinstance(ts, (int, float)) and not isinstance(ts, bool) for ts in stamps
    ):
        raise DatasetError(f"user {user!r}: 'timestamps' must be a list of numbers")
    values = np.asarray(stamps, dtype=float)
    _check_stamps(user, values)
    return ActivityTrace(user, values)


def load_trace_set(path: "str | Path") -> TraceSet:
    """Inverse of :func:`save_trace_set`; strict about malformed records.

    Any malformed line (truncated JSON, wrong types, non-finite,
    out-of-range or negative timestamps) raises :class:`DatasetError`
    naming the file and line.  Use :func:`load_trace_set_resilient` to
    quarantine bad lines instead of failing the whole load.
    """
    source = Path(path)
    traces = TraceSet()
    with source.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                traces.add(_parse_trace_line(line))
            except DatasetError as exc:
                raise DatasetError(
                    f"{source}:{line_number}: malformed trace record ({exc})"
                ) from exc
    return traces


def load_trace_set_resilient(
    path: "str | Path",
) -> "tuple[TraceSet, DataQualityReport]":
    """Load what can be loaded; quarantine malformed lines with reasons.

    The degradation-aware twin of :func:`load_trace_set`: every malformed
    line becomes a :class:`~repro.reliability.quality.QuarantinedUser`
    entry in the returned report (keyed by the record's user id when one
    could be decoded, else by ``<line N>``), and the healthy records are
    returned as a normal :class:`TraceSet`.
    """
    from repro.reliability.quality import DataQualityReport, QuarantinedUser

    source = Path(path)
    traces = TraceSet()
    quarantined: list[QuarantinedUser] = []
    n_records = 0
    with source.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            n_records += 1
            try:
                traces.add(_parse_trace_line(line))
            except DatasetError as exc:
                user = f"<line {line_number}>"
                try:
                    decoded = json.loads(line)
                    if isinstance(decoded, dict) and isinstance(
                        decoded.get("user"), str
                    ):
                        user = decoded["user"]
                except ValueError:
                    pass
                quarantined.append(QuarantinedUser(user, str(exc), 0))
    return traces, DataQualityReport(
        n_input_users=n_records,
        n_retained_users=len(traces),
        quarantined=tuple(quarantined),
    )
