"""The segmented Eq. 1 kernels and the blocked EMD kernels.

The counts and unique-cells kernels must match per-user oracles on
unsorted, sorted, negative and empty segments, on stamps at and next to
hour and day boundaries, on stamps far from the epoch and on
hour-quantised segments, and at any stamp-block size; their
division-based cell encoder must equal ``split_day_hours`` cell for cell
and refuse any column the stamp rule refuses.  The blocked
``distance_matrix`` kernels must be invariant to the block size down to
the last bit -- that exactness is what the sharded engine's merge
correctness rests on -- and the column-major pair sums must equal a
broadcast ``sum(axis=2)`` oracle bit for bit, as must
``classify_profiles``' flat flag and nearest zone, on near-tie rows
too, where its float32 screen hands the decision to float64.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import emd as emd_module, kernels as kernels_module
from repro.core import placement as placement_module
from repro.core.emd import ALL_DISTANCES, as_profile_matrix, distance_matrix
from repro.core.kernels import (
    MAX_ABS_STAMP_S,
    _hour_cells,
    segment_counts,
    segment_unique_cells,
)
from repro.core.placement import classify_profiles
from repro.core.profiles import Profile
from repro.core.reference import ReferenceProfiles
from repro.errors import CorruptTraceError
from repro.timebase.clock import split_day_hours


def _naive_counts(arrays: list[np.ndarray], offset_hours: float) -> np.ndarray:
    """Per-user dict-of-cells oracle for the segmented counts kernels."""
    out = np.zeros((len(arrays), 24), dtype=float)
    for i, stamps in enumerate(arrays):
        stamps = np.asarray(stamps, dtype=float)
        if stamps.size == 0:
            continue
        days, hours = split_day_hours(stamps, offset_hours)
        cells = {(int(day), int(hour)) for day, hour in zip(days, hours)}
        for _, hour in cells:
            out[i, hour] += 1.0
    return out


def _flatten(arrays: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    lengths = np.asarray([len(a) for a in arrays], dtype=np.int64)
    stamps = (
        np.concatenate([np.asarray(a, dtype=float) for a in arrays])
        if arrays
        else np.zeros(0, dtype=float)
    )
    return stamps, lengths


#: Largest stamp magnitude drawn, in seconds (about 31,700 years).
MAX_STAMP_S = 1e12


def _nudged(value: float, steps: int) -> float:
    """*value* moved *steps* representable floats up (or down if negative)."""
    toward = np.inf if steps > 0 else -np.inf
    for _ in range(abs(steps)):
        value = float(np.nextafter(value, toward))
    return value


#: Whole hours and whole days as hour counts, up to MAX_STAMP_S either way.
hour_multiples = st.one_of(
    st.integers(-int(MAX_STAMP_S // 3600), int(MAX_STAMP_S // 3600)),
    st.integers(-int(MAX_STAMP_S // 86400), int(MAX_STAMP_S // 86400)).map(
        lambda day: day * 24
    ),
    st.integers(-50, 50),
)

#: Stamps at an hour or day boundary, a few floats to either side of one,
#: or picoseconds off one (where split_day_hours' modulo rounds).
boundary_stamps = st.one_of(
    st.builds(
        lambda hours, steps: _nudged(hours * 3600.0, steps),
        hour_multiples,
        st.integers(-2, 2),
    ),
    st.builds(
        lambda hours, delta: hours * 3600.0 + delta,
        hour_multiples,
        st.floats(-2e-11, 2e-11),
    ),
)

stamp_values = st.one_of(
    st.floats(-3e5, 3e6, allow_nan=False, allow_infinity=False),
    st.floats(-MAX_STAMP_S, MAX_STAMP_S, allow_nan=False, allow_infinity=False),
    boundary_stamps,
)

segments = st.lists(
    st.one_of(
        st.lists(stamp_values, min_size=0, max_size=25),
        # Hour-quantised: every stamp an exact hour multiple.
        st.lists(
            st.integers(-2_000, 80_000).map(lambda hours: hours * 3600.0),
            min_size=0,
            max_size=25,
        ),
    ),
    min_size=0,
    max_size=12,
)

#: Every segment sorted, as traces and store shards keep them: the layout
#: production runs, which takes the kernels' sorted path.
sorted_segments = segments.map(lambda arrays: [sorted(a) for a in arrays])


class TestNumpyBackend:
    @given(segments, st.sampled_from([0.0, -5.0, 3.0, 11.5]))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_oracle(self, arrays, offset):
        """Unsorted, negative and empty segments all count correctly."""
        lists = [np.asarray(a, dtype=float) for a in arrays]
        stamps, lengths = _flatten(lists)
        np.testing.assert_array_equal(
            segment_counts(stamps + offset * 3600.0, lengths),
            _naive_counts(lists, offset),
        )

    @given(sorted_segments, st.sampled_from([0.0, -5.0, 3.0, 11.5]))
    @settings(max_examples=60, deadline=None)
    def test_sorted_segments_match_naive_oracle(self, arrays, offset):
        """Sorted segments, the layout traces and store shards hold."""
        lists = [np.asarray(a, dtype=float) for a in arrays]
        stamps, lengths = _flatten(lists)
        np.testing.assert_array_equal(
            segment_counts(stamps + offset * 3600.0, lengths),
            _naive_counts(lists, offset),
        )

    def test_empty_column_shapes(self):
        empty = np.zeros(0, dtype=float)
        no_users = segment_counts(empty, np.zeros(0, dtype=np.int64))
        assert no_users.shape == (0, 24)
        silent = segment_counts(empty, np.zeros(3, dtype=np.int64))
        np.testing.assert_array_equal(silent, np.zeros((3, 24)))

    def test_rows_are_float64(self):
        counts = segment_counts(
            np.array([10.0, 3700.0]), np.array([2], dtype=np.int64)
        )
        assert counts.dtype == np.float64


class TestHourCellEncoder:
    """The division encoder equals ``split_day_hours`` cell for cell."""

    @given(
        st.lists(
            st.one_of(stamp_values, st.sampled_from([np.nan, np.inf, -np.inf])),
            max_size=40,
        ),
        st.sampled_from([0.0, 5.5, -3.0, 0.25]),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_split_day_hours(self, values, offset):
        stamps = np.asarray(values, dtype=float)
        if not np.isfinite(stamps).all():
            # A column holding NaN or inf gets no cells at all.
            with pytest.raises(CorruptTraceError):
                _hour_cells(stamps + offset * 3600.0)
            return
        days, hours = split_day_hours(stamps, offset)
        cells = _hour_cells(stamps + offset * 3600.0)
        assert cells.dtype == np.int64
        np.testing.assert_array_equal(cells, days * 24 + hours)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_refuses_exactly_what_the_stamp_rule_refuses(self, sign):
        """The bound holds on both sides; exactly -2**40 h is refused too."""
        admitted = np.array([0.0, sign * float(np.nextafter(MAX_ABS_STAMP_S, 0.0))])
        days, hours = split_day_hours(admitted)
        np.testing.assert_array_equal(_hour_cells(admitted), days * 24 + hours)
        for bad in (MAX_ABS_STAMP_S, 1e30, np.inf):
            with pytest.raises(CorruptTraceError):
                _hour_cells(np.array([0.0, sign * bad]))

    @pytest.mark.parametrize(
        "stamp",
        [-1e-13, -5e-324, -3600.0 - 4e-12, float(np.nextafter(-3600.0, -np.inf))],
    )
    def test_negative_stamps_where_the_modulo_rounds(self, stamp):
        """split_day_hours' rounded modulo, not the exact floor, decides."""
        stamps = np.asarray([stamp])
        days, hours = split_day_hours(stamps)
        np.testing.assert_array_equal(_hour_cells(stamps), days * 24 + hours)


def _naive_unique(arrays: list, offset: float) -> tuple:
    """Per-user sorted-set oracle for the unique-cells kernels."""
    cells_out: list[int] = []
    lengths = []
    for stamps in arrays:
        stamps = np.asarray(stamps, dtype=float)
        if stamps.size == 0:
            lengths.append(0)
            continue
        days, hours = split_day_hours(stamps, offset)
        unique = sorted(
            {int(day) * 24 + int(hour) for day, hour in zip(days, hours)}
        )
        cells_out.extend(unique)
        lengths.append(len(unique))
    return (
        np.asarray(cells_out, dtype=np.int64),
        np.asarray(lengths, dtype=np.int64),
    )


class TestSegmentUniqueCells:
    @given(segments, st.sampled_from([0.0, -5.0, 3.0, 11.5]))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_oracle(self, arrays, offset):
        """Unsorted, negative and empty segments all deduplicate correctly."""
        lists = [np.asarray(a, dtype=float) for a in arrays]
        stamps, lengths = _flatten(lists)
        cells, counts = segment_unique_cells(stamps + offset * 3600.0, lengths)
        want_cells, want_counts = _naive_unique(lists, offset)
        np.testing.assert_array_equal(counts, want_counts)
        np.testing.assert_array_equal(cells, want_cells)

    @given(sorted_segments, st.sampled_from([0.0, -5.0, 3.0, 11.5]))
    @settings(max_examples=60, deadline=None)
    def test_sorted_segments_match_naive_oracle(self, arrays, offset):
        """Sorted segments, the layout traces and store shards hold."""
        lists = [np.asarray(a, dtype=float) for a in arrays]
        stamps, lengths = _flatten(lists)
        cells, counts = segment_unique_cells(stamps + offset * 3600.0, lengths)
        want_cells, want_counts = _naive_unique(lists, offset)
        np.testing.assert_array_equal(counts, want_counts)
        np.testing.assert_array_equal(cells, want_cells)

    def test_empty_column_shapes(self):
        empty = np.zeros(0, dtype=float)
        cells, counts = segment_unique_cells(
            empty, np.zeros(3, dtype=np.int64)
        )
        assert cells.shape == (0,) and cells.dtype == np.int64
        np.testing.assert_array_equal(counts, np.zeros(3, dtype=np.int64))

    def test_duplicates_collapse_within_user_only(self):
        # The same hour cell for two users stays one cell *each*.
        stamps = np.asarray([3600.0, 3660.0, 3600.0], dtype=float)
        lengths = np.asarray([2, 1], dtype=np.int64)
        cells, counts = segment_unique_cells(stamps, lengths)
        np.testing.assert_array_equal(counts, [1, 1])
        np.testing.assert_array_equal(cells, [1, 1])


def _assert_both_kernels_match(lists: list, block: int) -> None:
    """Both Eq. 1 kernels equal their oracles with *block*-stamp blocks."""
    lists = [np.asarray(a, dtype=float) for a in lists]
    stamps, lengths = _flatten(lists)
    with mock.patch.object(kernels_module, "_BLOCK_STAMPS", block):
        counts = segment_counts(stamps, lengths)
        cells, cell_lengths = segment_unique_cells(stamps, lengths)
    np.testing.assert_array_equal(counts, _naive_counts(lists, 0.0))
    want_cells, want_lengths = _naive_unique(lists, 0.0)
    np.testing.assert_array_equal(cell_lengths, want_lengths)
    np.testing.assert_array_equal(cells, want_cells)


class TestStampBlocks:
    """Block edges: the kernels' output cannot depend on the block size."""

    HOUR = 3600.0

    @given(
        st.one_of(segments, sorted_segments),
        st.integers(1, 9),
    )
    @settings(max_examples=80, deadline=None)
    def test_any_block_size(self, arrays, block):
        _assert_both_kernels_match(arrays, block)

    @pytest.mark.parametrize("block", [1, 2, 3, 4])
    def test_zero_length_users_at_block_edges(self, block):
        h = self.HOUR
        lists = [[], [0.5 * h, 1.5 * h], [], [], [2.5 * h], [], [3.5 * h, 3.6 * h, 9 * h], []]
        _assert_both_kernels_match(lists, block)

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_a_user_longer_than_a_block(self, block):
        h = self.HOUR
        long_user = [k * 0.5 * h for k in range(11)]  # two posts an hour
        _assert_both_kernels_match([[0.1 * h], long_user, [], [0.2 * h]], block)
        _assert_both_kernels_match([long_user], block)

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 100])
    def test_adjacent_users_holding_the_same_cell(self, block):
        """One cell ends a user and starts the next: each keeps it once."""
        h = self.HOUR
        lists = [
            [0.0, 5 * h + 1.0, 5 * h + 2.0],
            [5 * h + 3.0, 5 * h + 4.0],
            [5 * h + 5.0],
            [],
            [5 * h + 6.0, 6 * h],
        ]
        _assert_both_kernels_match(lists, block)

    @pytest.mark.parametrize("block", [1, 2, 4, 7])
    def test_hour_quantised_column(self, block):
        """Every stamp an hour multiple: the encoder's exact-hour case."""
        h = self.HOUR
        lists = [
            [-48 * h, -h, 0.0, 0.0, h],
            [h, h, 24 * h, 25 * h],
            [],
            [24 * h * 400, 24 * h * 400, 24 * h * 400 + h],
        ]
        _assert_both_kernels_match(lists, block)

    @pytest.mark.parametrize("block", [1, 3, 6])
    def test_unsorted_block_among_sorted_ones(self, block):
        """Only a block holding a descent takes the sort path."""
        h = self.HOUR
        lists = [[0.0, h, 2 * h], [3 * h, 0.5 * h, 3.5 * h, 0.1], [h, 2 * h], [5 * h]]
        _assert_both_kernels_match(lists, block)

    def test_lengths_must_cover_the_column(self):
        with pytest.raises(ValueError, match="segment lengths"):
            segment_counts(np.arange(5.0), np.array([2, 2]))


class TestBlockedDistanceKernels:
    def _profiles(self, n: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return rng.uniform(0.05, 4.0, size=(n, 24))

    def _naive(self, p: np.ndarray, q: np.ndarray, metric: str) -> np.ndarray:
        distance = ALL_DISTANCES[metric]
        return np.array(
            [[distance(row, ref) for ref in q] for row in p], dtype=float
        )

    @pytest.mark.parametrize("metric", sorted(ALL_DISTANCES))
    def test_matches_scalar_metrics(self, metric):
        p = self._profiles(17, 1)
        q = self._profiles(5, 2)
        np.testing.assert_allclose(
            distance_matrix(p, q, metric=metric),
            self._naive(p, q, metric),
            atol=1e-12,
        )

    @pytest.mark.parametrize("metric", sorted(ALL_DISTANCES))
    def test_block_size_invariance_is_bitwise(self, metric, monkeypatch):
        """Shrinking the block to a couple of rows changes nothing, bit-wise.

        Each output element is a reduction over one (profile, reference)
        pair, so blocking (and therefore sharding) cannot perturb results.
        """
        p = self._profiles(41, 3)
        q = self._profiles(7, 4)
        whole = distance_matrix(p, q, metric=metric)
        monkeypatch.setattr(emd_module, "_BLOCK_BYTES", 1)
        monkeypatch.setattr(emd_module, "_MIN_BLOCK_ROWS", 2)
        monkeypatch.setattr(emd_module, "_MAX_BLOCK_ROWS", 2)
        monkeypatch.setattr(emd_module, "_BLOCK_PAIRS", 2)
        tiny_blocks = distance_matrix(p, q, metric=metric)
        np.testing.assert_array_equal(whole, tiny_blocks)

    def test_adaptive_block_rows_respects_budget(self):
        assert emd_module._block_rows(1) == emd_module._MAX_BLOCK_ROWS
        huge_q = emd_module._block_rows(100_000)
        assert huge_q == emd_module._MIN_BLOCK_ROWS
        mid = emd_module._block_rows(256)
        per_row = 256 * 24 * 8
        assert mid * per_row <= emd_module._BLOCK_BYTES
        assert emd_module._MIN_BLOCK_ROWS <= mid <= emd_module._MAX_BLOCK_ROWS

    def test_empty_inputs(self):
        p = self._profiles(3, 5)
        assert distance_matrix(p, np.zeros((0, 24))).shape == (3, 0)
        assert distance_matrix(np.zeros((0, 24)), p).shape == (0, 3)


def _broadcast_oracle(p: np.ndarray, q: np.ndarray, metric: str) -> np.ndarray:
    """Distances by one ``(rows, n_q, 24)`` broadcast and a row-wise sum.

    Works in 1,024-row slices so store-sized inputs stay small; each
    element still comes from one ``sum(axis=2)`` over its own 24 values.
    """
    p = as_profile_matrix(p)
    q = as_profile_matrix(q)
    if metric == "linear":
        p, q = np.cumsum(p, axis=1), np.cumsum(q, axis=1)
    slices = []
    for start in range(0, len(p), 1024):
        diff = p[start : start + 1024, None] - q[None]
        if metric == "l2":
            slices.append(np.sqrt((diff**2).sum(axis=2)))
        else:
            slices.append(np.abs(diff).sum(axis=2))
    return np.concatenate(slices) if slices else np.zeros((0, len(q)))


def _wide_magnitudes(rows: int, seed: int) -> np.ndarray:
    """Rows whose 24 entries span 1e-8 to 1e8, so summation order shows."""
    rng = np.random.default_rng(seed)
    return 10.0 ** rng.uniform(-8.0, 8.0, size=(rows, 24))


class TestColumnMajorPairSums:
    """``distance_matrix`` equals the broadcast oracle bit for bit."""

    BLOCK = emd_module._BLOCK_PAIRS

    @pytest.mark.parametrize("metric", ["linear", "l1", "l2"])
    @pytest.mark.parametrize("n_refs", [1, 24, 25, 30])
    @pytest.mark.parametrize(
        "n_rows",
        [1, BLOCK // 25, BLOCK // 25 + 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7],
    )
    def test_straddling_block_shapes(self, metric, n_refs, n_rows):
        p = _wide_magnitudes(n_rows, seed=n_rows)
        q = _wide_magnitudes(n_refs, seed=1000 + n_refs)
        np.testing.assert_array_equal(
            distance_matrix(p, q, metric=metric), _broadcast_oracle(p, q, metric)
        )

    @given(
        n_rows=st.integers(1, 40),
        n_refs=st.integers(1, 30),
        block=st.integers(1, 64),
        metric=st.sampled_from(["linear", "l1", "l2"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_block_budget(self, n_rows, n_refs, block, metric, seed):
        p = _wide_magnitudes(n_rows, seed=seed)
        q = _wide_magnitudes(n_refs, seed=seed + 1)
        with mock.patch.object(emd_module, "_BLOCK_PAIRS", block):
            got = distance_matrix(p, q, metric=metric)
        np.testing.assert_array_equal(got, _broadcast_oracle(p, q, metric))


class TestClassifyProfilesOracle:
    """Flat flag and first-minimum zone against the broadcast oracle."""

    @staticmethod
    def _oracle(profiles: np.ndarray, references: ReferenceProfiles):
        stacked = np.vstack([references.stacked(), np.full(24, 1.0 / 24)])
        distances = _broadcast_oracle(profiles, stacked, "linear")
        zones = distances[:, :-1]
        return distances[:, -1] < zones.min(axis=1), np.argmin(zones, axis=1)

    @staticmethod
    def _crowd(rows: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        profiles = rng.dirichlet(np.full(24, 0.4), size=rows)
        # Near-uniform rows, so some users are flat.
        profiles[::7] = 1.0 + rng.uniform(0.0, 0.05, size=profiles[::7].shape)
        return profiles

    @pytest.mark.parametrize("rows", [1, 60_000])
    def test_matches_oracle(self, rows):
        references = ReferenceProfiles.canonical()
        profiles = self._crowd(rows, seed=rows)
        flat, nearest = classify_profiles(profiles, references)
        want_flat, want_nearest = self._oracle(profiles, references)
        np.testing.assert_array_equal(flat, want_flat)
        np.testing.assert_array_equal(nearest, want_nearest)
        if rows > 1:
            assert 0 < flat.sum() < rows

    def test_empty_matrix(self):
        flat, nearest = classify_profiles(
            np.zeros((0, 24)), ReferenceProfiles.canonical()
        )
        assert flat.shape == nearest.shape == (0,)
        assert flat.dtype == bool and nearest.dtype == np.intp

    @staticmethod
    def _adversarial(references: ReferenceProfiles) -> np.ndarray:
        """Rows on or next to a decision boundary.

        Each zone reference itself; the midpoint of every pair of zones
        (equidistant from both in exact arithmetic) and points a hair
        either side of it; the midpoint of each zone and the uniform
        profile (as close to one as to the other); uniform rows.
        """
        zones = references.stacked()
        uniform = np.full(24, 1.0 / 24)
        rows = [zones, np.tile(uniform, (3, 1))]
        first, second = np.triu_indices(24, k=1)
        for weight in (0.5, 0.5 + 2e-7, 0.5 - 2e-7, 0.5 + 3e-5):
            rows.append(weight * zones[first] + (1.0 - weight) * zones[second])
            rows.append(weight * zones + (1.0 - weight) * uniform)
        return np.vstack(rows)

    @pytest.mark.parametrize("generic", ["canonical", "flat"])
    def test_adversarial_rows_match_oracle(self, generic, monkeypatch):
        """Near-ties are re-decided in float64 and still equal the oracle.

        With a flat generic profile every zone reference is the same row,
        so all 24 zones (and the uniform profile) tie on every row.
        """
        references = (
            ReferenceProfiles.canonical()
            if generic == "canonical"
            else ReferenceProfiles(Profile(np.ones(24)))
        )
        profiles = self._adversarial(ReferenceProfiles.canonical())
        redecided: list[int] = []
        pair_sums = placement_module._pair_sums

        def spy(p, q, out, term):
            if out.dtype == np.float64:
                redecided.append(out.shape[1])
            pair_sums(p, q, out, term)

        monkeypatch.setattr(placement_module, "_pair_sums", spy)
        flat, nearest = classify_profiles(profiles, references)
        want_flat, want_nearest = self._oracle(profiles, references)
        np.testing.assert_array_equal(flat, want_flat)
        np.testing.assert_array_equal(nearest, want_nearest)
        if generic == "flat":
            assert redecided == [len(profiles)]
            assert not flat.any() and not nearest.any()
        else:
            assert 0 < sum(redecided) < len(profiles)

    def test_negative_mass_rows_skip_the_screen(self):
        """Outside [0, 1] CDFs the bound fails, so float64 decides it all."""
        rng = np.random.default_rng(5)
        profiles = rng.uniform(-0.5, 1.0, size=(200, 24))
        profiles[:, 0] = 20.0  # keep every total positive
        flat, nearest = classify_profiles(profiles, ReferenceProfiles.canonical())
        want_flat, want_nearest = self._oracle(
            profiles, ReferenceProfiles.canonical()
        )
        np.testing.assert_array_equal(flat, want_flat)
        np.testing.assert_array_equal(nearest, want_nearest)

    def test_float32_table_within_the_screen_bound(self):
        """The 192u bound the screen's tolerance doubles, checked directly."""
        references = ReferenceProfiles.canonical()
        profiles = np.vstack(
            [self._crowd(5_000, seed=9), self._adversarial(references)]
        )
        cdfs = np.cumsum(as_profile_matrix(profiles), axis=1)
        columns = placement_module._ZonesAndUniform(references).cumulative()
        single = np.empty((25, len(cdfs)), dtype=np.float32)
        double = np.empty((25, len(cdfs)))
        emd_module._pair_sums(cdfs, columns, single, np.absolute)
        emd_module._pair_sums(cdfs, columns, double, np.absolute)
        bound = 192 * 2.0**-24
        assert np.abs(single.astype(np.float64) - double).max() <= bound
        assert placement_module._SCREEN_TOL > 2 * bound
