"""Cross-module property-based tests: the invariants that make the
method sound.

These go beyond per-module unit tests: they pin down the *algebra* of
the pipeline (shift equivariance of placement, idempotence of polishing,
calibration invariance of scraping) that the paper's correctness rests
on.
"""

from __future__ import annotations

from itertools import compress

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_oracle import place_users
from repro.core.emd import emd_circular, emd_linear
from repro.core.events import ActivityTrace
from repro.core.profiles import HOURS, Profile, build_user_profile
from repro.core.reference import ReferenceProfiles
from repro.core.shard import compute_shard_partial
from repro.forum.engine import ForumServer
from repro.forum.scraper import ForumScraper
from repro.timebase.zones import normalize_offset

mass = st.lists(st.floats(0.01, 5.0, allow_nan=False), min_size=HOURS, max_size=HOURS)


class TestShiftEquivariance:
    @given(st.integers(-11, 12), st.integers(-6, 6))
    @settings(max_examples=40, deadline=None)
    def test_placement_shift_equivariance(self, base_zone, shift):
        """Shifting a user's clock by -s hours moves their zone by +s.

        This is the core soundness property: the EMD placement commutes
        with time translation (modulo the 24-zone wrap).
        """
        references = ReferenceProfiles.canonical()
        profile = references.for_zone(base_zone)
        shifted_profile = profile.shifted(-shift)
        placed = place_users({"u": shifted_profile}, references)["u"]
        assert placed == normalize_offset(base_zone + shift)

    @given(mass, st.integers(0, 23))
    @settings(max_examples=40)
    def test_circular_emd_shift_invariant_linear_not_necessarily(self, p, shift):
        profile = Profile(p)
        other = Profile(np.roll(np.asarray(p), 5) + 0.001)
        circular_before = emd_circular(profile, other)
        circular_after = emd_circular(profile.shifted(shift), other.shifted(shift))
        assert circular_before == pytest.approx(circular_after, abs=1e-9)


class TestTraceAlgebra:
    @given(
        st.lists(st.floats(0, 1e7, allow_nan=False), min_size=1, max_size=30),
        st.lists(st.floats(0, 1e7, allow_nan=False), min_size=1, max_size=30),
    )
    @settings(max_examples=30)
    def test_merge_commutative(self, a, b):
        left = ActivityTrace("u", a).merged_with(ActivityTrace("u", b))
        right = ActivityTrace("u", b).merged_with(ActivityTrace("u", a))
        assert np.allclose(left.timestamps, right.timestamps)

    @given(
        st.lists(st.floats(0, 1e7, allow_nan=False), min_size=1, max_size=30),
        st.floats(-24.0, 24.0, allow_nan=False),
    )
    @settings(max_examples=30)
    def test_shift_roundtrip(self, stamps, hours):
        trace = ActivityTrace("u", stamps)
        back = trace.shifted(hours).shifted(-hours)
        assert np.allclose(back.timestamps, trace.timestamps)

    @given(st.lists(st.floats(0, 1e7, allow_nan=False), min_size=1, max_size=40))
    @settings(max_examples=30)
    def test_profile_invariant_under_whole_day_shifts(self, stamps):
        """Moving a trace by exactly k days leaves its profile unchanged."""
        trace = ActivityTrace("u", stamps)
        moved = trace.shifted(48.0)  # two days
        assert build_user_profile(trace) == build_user_profile(moved)


class TestPolishIdempotence:
    def test_polish_twice_is_polish_once(self, references, rng):
        from repro.synth.bots import generate_bot_trace
        from repro.synth.twitter import build_region_crowd

        crowd = build_region_crowd("france", 30, seed=3, n_days=200)
        for index in range(4):
            crowd.add(generate_bot_trace(f"bot{index}", rng, n_days=200))
        once = compute_shard_partial(*crowd.columns(), references, min_posts=30)
        assert once.flat_mask.any()
        polished = crowd.without_users(compress(once.user_ids, once.flat_mask.tolist()))
        twice = compute_shard_partial(*polished.columns(), references, min_posts=30)
        assert not twice.flat_mask.any()
        assert twice.user_ids == tuple(
            compress(once.user_ids, (~once.flat_mask).tolist())
        )


class TestScrapeInvariance:
    @given(st.integers(-11, 12))
    @settings(max_examples=20, deadline=None)
    def test_recovered_times_independent_of_server_offset(self, offset):
        stamps = [1000.0, 5000.0, 25_000.0]
        forum = ForumServer("F", "x.onion", server_offset_hours=offset)
        forum.import_crowd_posts({"user": stamps})
        result = ForumScraper(forum).scrape(100_000.0)
        assert np.allclose(result.traces["user"].timestamps, stamps)

    @given(st.integers(-11, 12), st.integers(-11, 12))
    @settings(max_examples=15, deadline=None)
    def test_two_forums_same_crowd_same_traces(self, offset_a, offset_b):
        stamps = [86_400.0 * i + 3600.0 for i in range(5)]
        results = []
        for offset in (offset_a, offset_b):
            forum = ForumServer("F", "x.onion", server_offset_hours=offset)
            forum.import_crowd_posts({"user": stamps})
            results.append(ForumScraper(forum).scrape(10**6))
        assert np.allclose(
            results[0].traces["user"].timestamps,
            results[1].traces["user"].timestamps,
        )


class TestEmdBounds:
    @given(mass, mass)
    @settings(max_examples=40)
    def test_linear_emd_bounded_by_support_diameter(self, p, q):
        # No transport plan on 24 bins can move mass farther than 23.
        assert 0.0 <= emd_linear(np.asarray(p), np.asarray(q)) <= 23.0

    @given(mass, mass)
    @settings(max_examples=40)
    def test_circular_emd_bounded_by_half_circle(self, p, q):
        assert 0.0 <= emd_circular(np.asarray(p), np.asarray(q)) <= 12.0
