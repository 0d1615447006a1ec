"""EMD placement of users into zones."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.events import ActivityTrace, TraceSet
from repro.core.placement import (
    PlacementDistribution,
    assign_zones,
    place_trace_set,
    place_users,
    placement_distribution,
)
from repro.errors import EmptyTraceError
from repro.timebase.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.timebase.zones import ZONE_OFFSETS


class TestPlacementDistribution:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            PlacementDistribution((1.0,), n_users=1)

    def test_fraction_at(self):
        fractions = [0.0] * 24
        fractions[ZONE_OFFSETS.index(3)] = 1.0
        placement = PlacementDistribution(tuple(fractions), n_users=10)
        assert placement.fraction_at(3) == 1.0
        assert placement.fraction_at(4) == 0.0

    def test_mode_and_mean(self):
        fractions = [0.0] * 24
        fractions[ZONE_OFFSETS.index(2)] = 0.75
        fractions[ZONE_OFFSETS.index(6)] = 0.25
        placement = PlacementDistribution(tuple(fractions), n_users=4)
        assert placement.mode_offset() == 2
        assert placement.mean_offset() == pytest.approx(3.0)

    def test_counts_round_to_users(self):
        fractions = [0.0] * 24
        fractions[0] = 0.5
        fractions[1] = 0.5
        placement = PlacementDistribution(tuple(fractions), n_users=10)
        assert placement.counts().sum() == 10

    def test_top_zones(self):
        fractions = [0.0] * 24
        fractions[ZONE_OFFSETS.index(1)] = 0.6
        fractions[ZONE_OFFSETS.index(-6)] = 0.4
        placement = PlacementDistribution(tuple(fractions), n_users=10)
        assert placement.top_zones(2) == [(1, 0.6), (-6, 0.4)]


class TestPlaceUsers:
    @pytest.mark.parametrize("offset", [-8, -3, 0, 1, 5, 8, 12])
    def test_noiseless_profile_placed_exactly(self, canonical_references, offset):
        profile = canonical_references.for_zone(offset)
        assignments = place_users({"u": profile}, canonical_references)
        assert assignments == {"u": offset}

    def test_empty_mapping(self, canonical_references):
        assert place_users({}, canonical_references) == {}

    def test_mixed_crowd(self, canonical_references):
        profiles = {
            "east": canonical_references.for_zone(8),
            "west": canonical_references.for_zone(-5),
        }
        assignments = place_users(profiles, canonical_references)
        assert assignments["east"] == 8
        assert assignments["west"] == -5

    def test_circular_metric_supported(self, canonical_references):
        profile = canonical_references.for_zone(11)
        assignments = place_users({"u": profile}, canonical_references, metric="circular")
        assert assignments["u"] == 11


class TestAssignZones:
    @given(
        st.lists(st.integers(0, len(ZONE_OFFSETS) - 1), min_size=1, max_size=60)
    )
    def test_equals_the_per_user_dict(self, indices):
        user_ids = [f"user{i:03d}" for i in range(len(indices))][::-1]
        nearest = np.asarray(indices, dtype=np.int64)
        assignments, placement = assign_zones(user_ids, nearest)
        expected = {
            user_id: ZONE_OFFSETS[int(index)]
            for user_id, index in zip(user_ids, nearest)
        }
        assert assignments == expected
        assert list(assignments) == list(expected)
        assert all(type(value) is int for value in assignments.values())
        assert placement == placement_distribution(expected.values())

    def test_empty_rejected(self):
        with pytest.raises(EmptyTraceError):
            assign_zones([], np.zeros(0, dtype=np.int64))


class TestPlacementAggregation:
    def test_empty_rejected(self):
        with pytest.raises(EmptyTraceError):
            placement_distribution([])

    def test_fractions_sum_to_one(self):
        placement = placement_distribution([0, 0, 1, 5])
        assert placement.as_array().sum() == pytest.approx(1.0)
        assert placement.n_users == 4

    def test_out_of_range_offsets_normalised(self):
        placement = placement_distribution([13, -12])
        assert placement.fraction_at(-11) == pytest.approx(0.5)
        assert placement.fraction_at(12) == pytest.approx(0.5)

    @given(st.lists(st.integers(-11, 12), min_size=1, max_size=50))
    def test_counts_match_inputs(self, offsets):
        placement = placement_distribution(offsets)
        for offset in set(offsets):
            expected = offsets.count(offset) / len(offsets)
            assert placement.fraction_at(offset) == pytest.approx(expected)


class TestPlaceTraceSet:
    def test_synthetic_evening_poster(self, canonical_references):
        # A user posting at 21h local in UTC+2 posts at 19h UTC.
        stamps = [
            day * SECONDS_PER_DAY + 19 * SECONDS_PER_HOUR for day in range(60)
        ]
        # Add morning activity at 9h local = 7h UTC for shape.
        stamps += [
            day * SECONDS_PER_DAY + 7 * SECONDS_PER_HOUR for day in range(0, 60, 2)
        ]
        traces = TraceSet([ActivityTrace("u", stamps)])
        placement = place_trace_set(traces, canonical_references)
        assert abs(placement.mode_offset() - 2) <= 1

    def test_skips_empty_traces(self, canonical_references):
        traces = TraceSet([ActivityTrace("empty")])
        with pytest.raises(EmptyTraceError):
            place_trace_set(traces, canonical_references)
