"""Property tests: the batch fast paths equal the per-Profile reference paths.

Every vectorised path added by the batch engine (one-pass Eq. 1 profiles,
matrix distances for all four metrics, the per-user reduction's flat
mask, bincount placement, the shared-matrix geolocator, streaming
snapshots) is checked here against the naive per-user implementation it
replaced, including empty-trace, single-user and tie-breaking edge
cases.  The per-Profile polishing loop, placement and pipeline are the
oracles of ``reference_oracle.py``.
"""

from __future__ import annotations

from itertools import compress

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_oracle import geolocate_reference, place_users, polish_trace_set_reference
from repro.core.batch import ProfileMatrix
from repro.core.emd import ALL_DISTANCES, as_profile_matrix, distance_matrix
from repro.core.events import ActivityTrace, TraceSet
from repro.core.flatness import (
    flat_profile_mask,
    is_flat_profile,
    polish_profile_matrix,
)
from repro.core.geolocate import CrowdGeolocator
from repro.core.kernels import segment_counts
from repro.core.placement import (
    PlacementDistribution,
    assign_zones,
    classify_profiles,
    place_profile_matrix,
    placement_distribution,
)
from repro.core.profiles import (
    HOURS,
    Profile,
    active_hour_counts,
    build_crowd_profile,
    build_user_profile,
    build_user_profile_civil,
)
from repro.core.reference import ReferenceProfiles
from repro.core.shard import compute_shard_partial
from repro.core.streaming import StreamingGeolocator
from repro.errors import EmptyTraceError, ProfileError
from repro.timebase.zones import ZONE_OFFSETS, get_region, normalize_offset
from test_kernels import _naive_counts

SECONDS_90_DAYS = 90 * 86400.0

timestamps_strategy = st.lists(
    st.floats(0.0, SECONDS_90_DAYS, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=60,
)

trace_set_strategy = st.lists(timestamps_strategy, min_size=0, max_size=8).map(
    lambda lists: TraceSet(
        ActivityTrace(f"u{i:03d}", stamps) for i, stamps in enumerate(lists)
    )
)

mass_strategy = st.lists(
    st.floats(0.01, 5.0, allow_nan=False), min_size=HOURS, max_size=HOURS
)


def _diurnal_trace(user_id, zone, rng, n_days=30, posts_per_day=4):
    """A plausibly diurnal user resident in UTC+zone (evening-heavy)."""
    hours = rng.choice([18, 19, 20, 21, 22], size=n_days * posts_per_day)
    days = rng.integers(0, n_days, size=n_days * posts_per_day)
    stamps = days * 86400.0 + (hours - zone) * 3600.0 + rng.uniform(
        0, 3600.0, size=hours.size
    )
    return ActivityTrace(user_id, np.abs(stamps))


def _uniform_trace(user_id, rng, n_days=30):
    """A bot: one post in every hour of every day (perfectly flat)."""
    days = np.repeat(np.arange(n_days), HOURS)
    hours = np.tile(np.arange(HOURS), n_days)
    return ActivityTrace(user_id, days * 86400.0 + hours * 3600.0 + 30.0)


def _mixed_crowd(seed=0, n_diurnal=12, n_flat=4):
    rng = np.random.default_rng(seed)
    traces = [
        _diurnal_trace(f"d{i:02d}", int(rng.integers(-11, 13)), rng)
        for i in range(n_diurnal)
    ]
    traces += [_uniform_trace(f"flat{i:02d}", rng) for i in range(n_flat)]
    return TraceSet(traces)


class TestProfileEquivalence:
    @given(trace_set_strategy, st.floats(-12.0, 12.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_matrix_rows_equal_reference_profiles(self, traces, offset):
        matrix = ProfileMatrix.from_trace_set(traces.shifted(offset))
        assert matrix.user_ids == tuple(
            trace.user_id for trace in traces if not trace.is_empty()
        )
        for trace in traces:
            if trace.is_empty():
                continue
            expected = build_user_profile(trace, offset_hours=offset).mass
            np.testing.assert_allclose(
                matrix.row(trace.user_id), expected, atol=1e-12
            )

    @given(trace_set_strategy)
    @settings(max_examples=25, deadline=None)
    def test_segmented_counts_equal_per_trace_counts(self, traces):
        _, lengths, stamps = traces.columns()
        segmented = segment_counts(stamps, lengths)
        for i, trace in enumerate(traces):
            np.testing.assert_array_equal(
                segmented[i], _naive_counts([trace.timestamps], 0.0)[0]
            )

    @given(timestamps_strategy)
    @settings(max_examples=25, deadline=None)
    def test_active_hour_counts_match_cell_set(self, stamps):
        trace = ActivityTrace("u", stamps)
        counts = np.zeros(HOURS)
        for _day, hour in trace.active_day_hours():
            counts[hour] += 1.0
        np.testing.assert_array_equal(active_hour_counts(trace.timestamps), counts)

    def test_empty_trace_set(self):
        matrix = ProfileMatrix.from_trace_set(TraceSet())
        assert len(matrix) == 0
        assert matrix.matrix.shape == (0, HOURS)
        with pytest.raises(EmptyTraceError):
            matrix.crowd_profile()

    def test_single_user(self):
        traces = TraceSet([ActivityTrace("solo", [100.0, 7200.0, 7300.0])])
        matrix = ProfileMatrix.from_trace_set(traces)
        assert len(matrix) == 1
        assert matrix.profile("solo") == build_user_profile(traces["solo"])

    def test_empty_traces_skipped_or_raise(self):
        traces = TraceSet([ActivityTrace("a", [100.0]), ActivityTrace("b", [])])
        matrix = ProfileMatrix.from_trace_set(traces)
        assert matrix.user_ids == ("a",)
        with pytest.raises(EmptyTraceError):
            ProfileMatrix.from_counts(["b"], np.zeros((1, HOURS)))

    def test_crowd_profile_matches_reference(self):
        crowd = _mixed_crowd(seed=4)
        matrix = ProfileMatrix.from_trace_set(crowd)
        expected = build_crowd_profile(
            build_user_profile(trace) for trace in crowd
        )
        np.testing.assert_allclose(
            matrix.crowd_profile().mass, expected.mass, atol=1e-12
        )


class TestCivilProfile:
    @given(
        st.sampled_from(["germany", "brazil", "new_south_wales", "japan"]),
        st.lists(
            st.floats(0.0, 360 * 86400.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=40,
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_vectorised_equals_naive_loop(self, region_key, stamps):
        region = get_region(region_key)
        trace = ActivityTrace("u", stamps)
        # The pre-vectorisation implementation, kept verbatim as the oracle.
        counts = np.zeros(HOURS, dtype=float)
        seen: set[tuple[int, int]] = set()
        for timestamp in trace.timestamps:
            utc_day = int(timestamp // 86400.0)
            offset = region.utc_offset_at(utc_day)
            shifted = timestamp + offset * 3600.0
            cell = (int(shifted // 86400.0), int((shifted % 86400.0) // 3600.0))
            if cell in seen:
                continue
            seen.add(cell)
            counts[cell[1]] += 1.0
        expected = Profile(counts)
        assert build_user_profile_civil(trace, region) == expected


class TestDistanceMatrix:
    @given(
        st.lists(mass_strategy, min_size=1, max_size=6),
        st.lists(mass_strategy, min_size=1, max_size=6),
        st.sampled_from(sorted(ALL_DISTANCES)),
    )
    @settings(max_examples=40, deadline=None)
    def test_matrix_equals_scalar_loop(self, p_masses, q_masses, metric):
        profiles = [Profile(m) for m in p_masses]
        references = [Profile(m) for m in q_masses]
        matrix = distance_matrix(profiles, references, metric=metric)
        scalar = ALL_DISTANCES[metric]
        expected = np.array(
            [[scalar(p, q) for q in references] for p in profiles]
        )
        np.testing.assert_allclose(matrix, expected, atol=1e-9)

    def test_reference_profiles_cached_cumsum_used(self):
        references = ReferenceProfiles.canonical()
        fresh = np.cumsum(
            np.vstack([r.mass for r in references.as_list()]), axis=1
        )
        np.testing.assert_allclose(references.cumulative(), fresh)
        profiles = [Profile(np.arange(1.0, 25.0))]
        via_object = distance_matrix(profiles, references)
        via_list = distance_matrix(profiles, references.as_list())
        np.testing.assert_allclose(via_object, via_list, atol=1e-12)

    def test_profile_matrix_input(self):
        crowd = _mixed_crowd(seed=5)
        matrix = ProfileMatrix.from_trace_set(crowd)
        references = ReferenceProfiles.canonical()
        via_matrix = distance_matrix(matrix, references)
        via_lists = distance_matrix(
            [matrix.profile(u) for u in matrix.user_ids], references.as_list()
        )
        np.testing.assert_allclose(via_matrix, via_lists, atol=1e-9)

    def test_empty_profiles(self):
        references = ReferenceProfiles.canonical()
        out = distance_matrix(np.zeros((0, HOURS)) + 1.0, references)
        assert out.shape == (0, len(ZONE_OFFSETS))

    def test_as_profile_matrix_rejects_zero_mass(self):
        with pytest.raises(ValueError):
            as_profile_matrix(np.zeros((2, HOURS)))


class TestFlatnessEquivalence:
    @given(st.lists(mass_strategy, min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_mask_equals_scalar(self, masses):
        profiles = [Profile(m) for m in masses]
        references = ReferenceProfiles.canonical()
        mask = flat_profile_mask(
            np.vstack([p.mass for p in profiles]), references
        )
        expected = [is_flat_profile(p, references) for p in profiles]
        assert mask.tolist() == expected

    @pytest.mark.parametrize("canonical", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_polish_survivors_match_reference(self, references, canonical, seed):
        """The reduction's one flat mask removes what the per-Profile loop
        removes over all its rounds, against the canonical references and
        against the data-derived ones the figure experiments use."""
        crowd = _mixed_crowd(seed=seed)
        refs = ReferenceProfiles.canonical() if canonical else references
        partial = compute_shard_partial(*crowd.columns(), refs, min_posts=10)
        polished, removed, iterations = polish_trace_set_reference(
            crowd, refs, min_posts=10
        )
        assert tuple(compress(partial.user_ids, partial.flat_mask.tolist())) == removed
        assert iterations == 2
        survivors = compress(partial.user_ids, (~partial.flat_mask).tolist())
        assert list(survivors) == polished.user_ids()
        assert removed and all(u.startswith("flat") for u in removed)

    def test_polish_empty_crowd(self):
        references = ReferenceProfiles.canonical()
        partial = compute_shard_partial(*TraceSet().columns(), references)
        polished, removed, iterations = polish_trace_set_reference(
            TraceSet(), references
        )
        assert partial.user_ids == removed == ()
        assert len(polished) == partial.n_admitted == 0
        assert iterations == 1


class TestPlacementEquivalence:
    @given(st.lists(st.integers(-40, 40), min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_bincount_distribution_matches_loop(self, assignments):
        fast = placement_distribution(assignments)
        offsets = [normalize_offset(o) for o in assignments]
        counts = np.zeros(len(ZONE_OFFSETS), dtype=float)
        for offset in offsets:
            counts[ZONE_OFFSETS.index(offset)] += 1.0
        expected = PlacementDistribution(
            tuple((counts / counts.sum()).tolist()), n_users=len(offsets)
        )
        assert fast.n_users == expected.n_users
        np.testing.assert_allclose(fast.as_array(), expected.as_array())

    def test_placement_distribution_empty(self):
        with pytest.raises(EmptyTraceError):
            placement_distribution([])

    def test_matrix_placement_matches_dict_path(self):
        crowd = _mixed_crowd(seed=6)
        references = ReferenceProfiles.canonical()
        matrix = ProfileMatrix.from_trace_set(crowd)
        assignments, distribution = place_profile_matrix(matrix, references)
        dict_assignments = place_users(
            {u: matrix.profile(u) for u in matrix.user_ids}, references
        )
        assert assignments == dict_assignments
        np.testing.assert_allclose(
            distribution.as_array(),
            placement_distribution(assignments.values()).as_array(),
        )
        partial = compute_shard_partial(*crowd.columns(), references, min_posts=1)
        assert assign_zones(partial.user_ids, partial.zone_indices) == (
            assignments,
            distribution,
        )

    def test_tie_breaking_resolves_to_smaller_offset(self):
        # A 12-hour-periodic generic profile makes references for offsets o
        # and o+/-12 identical, so every user ties across two zones; both
        # paths must agree on the smaller offset, like nearest_zone does.
        periodic = Profile(np.tile([1.0, 2.0, 4.0, 2.0, 1.0, 0.5, 0.25, 0.5,
                                    1.0, 2.0, 4.0, 2.0], 2))
        references = ReferenceProfiles(periodic)
        user = periodic.shifted(-5)  # resident of UTC+5, ties with UTC-7
        assert references.nearest_zone(user) == -7
        assignments = place_users({"u": user}, references)
        assert assignments["u"] == -7
        matrix = ProfileMatrix(["u"], user.mass[None, :])
        batch_assignments, _ = place_profile_matrix(matrix, references)
        assert batch_assignments["u"] == -7


def _boundary_crowd(seed: int, n_users: int) -> ProfileMatrix:
    """Zone-shaped, near-flat and random rows, so decisions sit near the
    flat/zone boundary as well as far from it."""
    rng = np.random.default_rng(seed)
    generic = ReferenceProfiles.canonical().generic.mass
    rows = []
    for i in range(n_users):
        kind = i % 3
        if kind == 0:
            row = np.roll(generic, int(rng.integers(HOURS)))
            row = row * rng.uniform(0.6, 1.4, HOURS)
        elif kind == 1:
            row = rng.uniform(0.9, 1.1, HOURS) / HOURS
        else:
            row = rng.uniform(0.01, 1.0, HOURS)
        rows.append(row)
    return ProfileMatrix([f"u{i:03d}" for i in range(n_users)], np.vstack(rows))


def _references_of(kind: str, seed: int, twitter: ReferenceProfiles):
    if kind == "canonical":
        return ReferenceProfiles.canonical()
    if kind == "twitter":
        return twitter
    generic = np.random.default_rng(seed).uniform(0.01, 1.0, HOURS)
    return ReferenceProfiles(Profile(generic))


class TestOnePassClassifier:
    """``classify_profiles`` makes the polish and placement decisions of
    ``polish_profile_matrix`` + ``place_profile_matrix`` in one pass."""

    @given(
        seed=st.integers(0, 2**16),
        n_users=st.integers(1, 45),
        kind=st.sampled_from(["canonical", "twitter", "random"]),
        polish=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_polish_then_place(
        self, references, seed, n_users, kind, polish
    ):
        refs = _references_of(kind, seed, references)
        matrix = _boundary_crowd(seed, n_users)
        flat, nearest = classify_profiles(matrix, refs)
        keep = ~flat if polish else np.ones(len(matrix), dtype=bool)
        kept_ids = tuple(u for u, k in zip(matrix.user_ids, keep) if k)
        survivors = matrix
        if polish:
            survivors, removed, _ = polish_profile_matrix(matrix, refs)
            assert removed == tuple(
                u for u, f in zip(matrix.user_ids, flat) if f
            )
        assert survivors.user_ids == kept_ids
        # The argmin runs over the 24 zone columns only.
        np.testing.assert_array_equal(
            nearest, np.argmin(distance_matrix(matrix, refs), axis=1)
        )
        if not kept_ids:
            return
        assignments, _ = place_profile_matrix(survivors, refs)
        assert assignments == {
            u: ZONE_OFFSETS[int(i)] for u, i in zip(kept_ids, nearest[keep])
        }

    @pytest.mark.parametrize("kind", ["canonical", "twitter"])
    def test_flat_mask_equals_renormalised_stack_formula(self, references, kind):
        """The flat test once re-normalised ``[uniform] + references``; on
        canonical and Twitter-derived references that stack is the
        references' own, bit for bit, so no decision moved."""
        refs = _references_of(kind, 0, references)
        stack = refs.stacked()
        np.testing.assert_array_equal(
            stack / stack.sum(axis=1, keepdims=True), stack
        )
        matrix = _boundary_crowd(seed=11, n_users=600)
        combined = np.vstack([np.full((1, HOURS), 1.0 / HOURS), stack])
        distances = distance_matrix(matrix, combined)
        flat, _ = classify_profiles(matrix, refs)
        np.testing.assert_array_equal(
            flat, distances[:, 0] < distances[:, 1:].min(axis=1)
        )
        assert 0 < flat.sum() < len(matrix)


class TestPipelineEquivalence:
    def test_geolocate_engines_agree(self):
        crowd = _mixed_crowd(seed=7, n_diurnal=20, n_flat=5)
        locator = CrowdGeolocator(min_posts=10)
        fast = locator.geolocate(crowd, crowd_name="c")
        slow = geolocate_reference(locator, crowd, crowd_name="c")
        assert fast.n_users == slow.n_users
        assert fast.n_posts == slow.n_posts
        assert fast.n_removed_flat == slow.n_removed_flat
        assert fast.user_zones == slow.user_zones
        np.testing.assert_allclose(
            fast.placement.as_array(), slow.placement.as_array()
        )
        np.testing.assert_allclose(
            fast.crowd_profile.mass, slow.crowd_profile.mass, atol=1e-12
        )
        assert fast.pearson_vs_generic == pytest.approx(slow.pearson_vs_generic)


class TestStreamingEquivalence:
    def test_snapshot_matches_batch_pipeline(self):
        crowd = _mixed_crowd(seed=8, n_diurnal=15, n_flat=3)
        stream = StreamingGeolocator(min_posts=10, min_users_for_verdict=5)
        for trace in crowd:
            for stamp in trace.timestamps:
                stream.observe(trace.user_id, float(stamp))
        profiles = stream.active_profiles()
        # Oracle: per-user threshold + scalar flat filter.
        references = stream.references
        expected = {}
        for trace in crowd:
            if len(trace) < 10:
                continue
            profile = build_user_profile(trace)
            if is_flat_profile(profile, references):
                continue
            expected[trace.user_id] = profile
        assert set(profiles) == set(expected)
        for user_id, profile in expected.items():
            np.testing.assert_allclose(
                profiles[user_id].mass, profile.mass, atol=1e-12
            )
        snapshot = stream.snapshot()
        assert snapshot.has_verdict()
        assert snapshot.n_users_active == len(expected)


class TestFastSelect:
    """select()/without_users() skip re-validation but equal the validating
    constructor bit for bit."""

    @given(
        seed=st.integers(0, 2**16),
        n_users=st.integers(1, 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_select_equals_validating_constructor(self, seed, n_users):
        rng = np.random.default_rng(seed)
        rows = rng.uniform(0.01, 1.0, size=(n_users, HOURS))
        ids = [f"u{i}" for i in range(n_users)]
        matrix = ProfileMatrix(ids, rows)
        mask = rng.uniform(size=n_users) < 0.5
        fast = matrix.select(mask)
        rebuilt = ProfileMatrix(
            [uid for uid, keep in zip(ids, mask) if keep],
            matrix.matrix[mask],
        )
        assert fast.user_ids == rebuilt.user_ids
        # The validating constructor re-normalises the (already
        # row-stochastic) rows, which can move the last bit; the fast path
        # must agree up to that one re-normalisation and keep every row
        # exactly unit-mass.
        np.testing.assert_allclose(fast.matrix, rebuilt.matrix, rtol=1e-14)
        np.testing.assert_allclose(fast.matrix.sum(axis=1), 1.0, rtol=1e-12)
        np.testing.assert_allclose(
            fast.cumulative(), rebuilt.cumulative(), rtol=1e-13
        )

    def test_select_preserves_rows_bitwise(self):
        rng = np.random.default_rng(5)
        matrix = ProfileMatrix(
            [f"u{i}" for i in range(10)],
            rng.uniform(0.01, 1.0, size=(10, HOURS)),
        )
        mask = np.arange(10) % 2 == 0
        subset = matrix.select(mask)
        np.testing.assert_array_equal(subset.matrix, matrix.matrix[mask])

    def test_select_slices_cumulative_cache(self):
        rng = np.random.default_rng(6)
        matrix = ProfileMatrix(
            [f"u{i}" for i in range(8)],
            rng.uniform(0.01, 1.0, size=(8, HOURS)),
        )
        matrix.cumulative()  # populate the cache before slicing
        mask = np.array([True, False] * 4)
        subset = matrix.select(mask)
        np.testing.assert_array_equal(
            subset.cumulative(), matrix.cumulative()[mask]
        )

    def test_without_users_equals_masked_select(self):
        rng = np.random.default_rng(7)
        ids = [f"u{i}" for i in range(9)]
        matrix = ProfileMatrix(ids, rng.uniform(0.01, 1.0, size=(9, HOURS)))
        dropped = {"u1", "u4", "u8"}
        via_without = matrix.without_users(dropped)
        keep = np.array([uid not in dropped for uid in ids])
        via_select = matrix.select(keep)
        assert via_without.user_ids == via_select.user_ids
        np.testing.assert_array_equal(via_without.matrix, via_select.matrix)

    def test_select_bad_mask_shape_raises(self):
        matrix = ProfileMatrix(["a"], np.full((1, HOURS), 1.0))
        with pytest.raises(Exception, match="mask"):
            matrix.select(np.array([True, False]))


class TestLazyIdIndex:
    """The id -> row dict is built on the first lookup, not at construction."""

    def _matrix(self, n_users=9, seed=8):
        rng = np.random.default_rng(seed)
        ids = [f"u{i}" for i in range(n_users)]
        return ids, ProfileMatrix.from_counts(
            ids, rng.integers(1, 5, size=(n_users, HOURS)).astype(float)
        )

    def test_lookups_after_from_counts(self):
        ids, matrix = self._matrix()
        for row, user_id in enumerate(ids):
            assert user_id in matrix
            assert matrix.index_of(user_id) == row
            np.testing.assert_array_equal(matrix.row(user_id), matrix.matrix[row])
            np.testing.assert_array_equal(
                matrix.profile(user_id).mass, Profile(matrix.matrix[row]).mass
            )
        assert "absent" not in matrix
        with pytest.raises(EmptyTraceError, match="absent"):
            matrix.index_of("absent")

    @pytest.mark.parametrize("looked_up_first", [False, True])
    def test_lookups_after_select(self, looked_up_first):
        ids, matrix = self._matrix()
        if looked_up_first:
            assert matrix.index_of("u4") == 4
        mask = np.arange(len(ids)) % 3 != 1
        subset = matrix.select(mask)
        kept = [user_id for user_id, keep in zip(ids, mask) if keep]
        assert subset.user_ids == tuple(kept)
        for row, user_id in enumerate(kept):
            assert user_id in subset
            assert subset.index_of(user_id) == row
            np.testing.assert_array_equal(
                subset.row(user_id), matrix.row(user_id)
            )
        for user_id in set(ids) - set(kept):
            assert user_id not in subset
            with pytest.raises(EmptyTraceError):
                subset.row(user_id)

    @pytest.mark.parametrize(
        "build",
        [
            lambda ids, rows: ProfileMatrix(ids, rows),
            lambda ids, rows: ProfileMatrix.from_counts(ids, rows),
            lambda ids, rows: ProfileMatrix.from_counts(iter(ids), rows),
        ],
        ids=["constructor", "from_counts", "from_counts_iterator"],
    )
    def test_duplicate_ids_still_raise(self, build):
        rows = np.ones((3, HOURS))
        with pytest.raises(ProfileError, match="duplicate"):
            build(["a", "b", "a"], rows)
