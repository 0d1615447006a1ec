"""``geolocate()`` on the stamp column equals the per-trace oracle.

The production batch path validates, thresholds and counts a crowd on
one stamp column; ``pipeline_oracle.geolocate_oracle`` is the per-trace
path it replaced, with naive per-user Eq. 1 counts.  Every report field
must be equal, and a corrupt crowd must raise the same
:class:`~repro.errors.CorruptTraceError` text.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pipeline_oracle import geolocate_oracle
from repro.core.events import ActivityTrace, TraceSet
from repro.core.geolocate import CrowdGeolocator, GeolocationReport
from repro.core.hemisphere import HemisphereResult
from repro.core.profiles import Profile
from repro.core.reference import ReferenceProfiles
from repro.errors import CorruptTraceError, ReproError

HOUR_S = 3600.0
DAY_S = 86400.0

REFERENCES = ReferenceProfiles.canonical()

#: Diurnal users twice as often as each other kind.
KINDS = ("diurnal", "diurnal", "flat", "sparse", "empty")


def _trace(user_id: str, kind: str, rng: np.random.Generator, n_days: int):
    if kind == "empty":
        return ActivityTrace(user_id)
    if kind == "flat":  # bot-like: uniform over the day
        size = int(rng.integers(40, 120))
        return ActivityTrace(user_id, rng.uniform(0.0, n_days * DAY_S, size))
    if kind == "sparse":  # below the paper's 30-post threshold
        size = int(rng.integers(1, 30))
        return ActivityTrace(user_id, rng.uniform(0.0, n_days * DAY_S, size))
    zone = int(rng.choice([-5, 1, 8]))
    size = int(rng.integers(30, 90))
    days = rng.integers(0, n_days, size)
    hours = rng.normal(20.0 - zone, 2.0, size) % 24
    return ActivityTrace(user_id, days * DAY_S + hours * HOUR_S)


@st.composite
def crowds(draw) -> TraceSet:
    """Small mixed crowds: diurnal users in three zones, flat bots,
    below-threshold users and empty traces.  Stamps may start before the
    epoch and may be quantised to the minute or the hour."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(KINDS), max_size=24))
    n_days = draw(st.sampled_from([60, 366]))
    start = draw(st.sampled_from([0.0, -45 * DAY_S]))
    resolution = draw(st.sampled_from([0.0, 60.0, HOUR_S]))
    traces = []
    for index, kind in enumerate(kinds):
        stamps = _trace(f"u{index:03d}", kind, rng, n_days).timestamps + start
        if resolution:
            stamps = np.floor(stamps / resolution) * resolution
        traces.append(ActivityTrace(f"u{index:03d}", stamps))
    return TraceSet(traces)


def _canonical(value):
    """A NaN-stable form of a report field, so ``==`` compares it exactly."""
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    if isinstance(value, Profile):  # Profile.__eq__ is a tolerance compare
        return value.mass.tolist()
    if isinstance(value, HemisphereResult):
        return tuple(
            _canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
        )
    if isinstance(value, tuple):
        return tuple(_canonical(item) for item in value)
    return value


def _run(call):
    """``(report, None)``, or ``(None, (error type, message))``."""
    try:
        return call(), None
    except ReproError as error:
        return None, (type(error), str(error))


def assert_same_outcome(locator, traces, **options) -> GeolocationReport | None:
    report, error = _run(lambda: locator.geolocate(traces, **options))
    expected, expected_error = _run(
        lambda: geolocate_oracle(locator, traces, **options)
    )
    assert error == expected_error
    if report is not None:
        for field in dataclasses.fields(GeolocationReport):
            assert _canonical(getattr(report, field.name)) == _canonical(
                getattr(expected, field.name)
            ), field.name
    return report


class TestPipelineOracle:
    @given(
        crowds(),
        st.sampled_from([0, 1, 30]),
        st.sampled_from([0, 3]),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_report_field_matches(self, traces, min_posts, hemisphere_top_n):
        locator = CrowdGeolocator(REFERENCES, min_posts=min_posts)
        assert_same_outcome(
            locator,
            traces,
            crowd_name="oracle",
            hemisphere_top_n=hemisphere_top_n,
        )

    @given(
        crowds(),
        st.lists(
            st.tuples(
                st.sampled_from([np.nan, np.inf, -np.inf]), st.integers(0, 10**6)
            ),
            min_size=1,
            max_size=9,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_corrupt_crowds_raise_the_same_text(self, traces, bad_stamps):
        corrupt = TraceSet(traces)
        for index, (bad, position) in enumerate(bad_stamps):
            stamps = np.arange(40, dtype=float) * 3607.0
            stamps[position % stamps.size] = bad
            corrupt.add(ActivityTrace(f"bad{index}", stamps))
        _, error = _run(lambda: CrowdGeolocator(REFERENCES).geolocate(corrupt))
        _, expected = _run(
            lambda: geolocate_oracle(CrowdGeolocator(REFERENCES), corrupt)
        )
        assert error is not None and error[0] is CorruptTraceError
        assert error == expected

    @pytest.mark.parametrize(
        "n_bad, suffix", [(5, ""), (6, " and 1 more"), (9, " and 4 more")]
    )
    def test_offenders_past_five_are_counted(self, n_bad, suffix):
        traces = TraceSet(
            ActivityTrace(f"bad{index}", [0.0, np.nan]) for index in range(n_bad)
        )
        shown = ", ".join(f"bad{index} (non-finite-timestamps)" for index in range(5))
        with pytest.raises(CorruptTraceError) as raised:
            CrowdGeolocator(REFERENCES).geolocate(traces)
        assert str(raised.value) == (
            f"{n_bad} corrupt trace(s): {shown}{suffix}; "
            "pass quarantine=True to set them aside and analyse the rest"
        )

    def test_empty_traces_count_when_the_threshold_admits_them(self):
        rng = np.random.default_rng(3)
        traces = TraceSet(
            [_trace(f"d{index}", "diurnal", rng, 60) for index in range(12)]
            + [ActivityTrace("silent")]
        )
        locator = CrowdGeolocator(REFERENCES, min_posts=0)
        report = assert_same_outcome(locator, traces)
        assert report is not None
        assert report.n_users == 13 and len(report.user_zones) == 12
