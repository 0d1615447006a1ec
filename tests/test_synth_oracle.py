"""The synthetic generators against their per-day oracles and the frozen digests.

Every generator must draw the same numbers in the same order as the
per-day loops of ``tests/synth_oracle.py`` and turn them into the same
stamps, bit for bit: the stamp bytes and ``rng.bit_generator.state``
after the call must be equal, and the next draw from each generator
too.  ``fixtures/synth/digests.json`` pins every builder of
:mod:`repro.synth` to what those loops produced (``tests/synth_fixtures.py``).
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.events import ActivityTrace, TraceSet
from repro.synth import (
    CULTURES,
    DiurnalModel,
    DriftScenario,
    UserSpec,
    build_relocation_scenario,
    generate_bot_trace,
    generate_crowd,
    generate_shift_worker_trace,
    generate_trace,
    sample_population,
)
from repro.synth.diurnal import hours_from_uniforms
from repro.synth.population import CHRONOTYPE_CLIP
from repro.timebase.clock import (
    CivilDate,
    civil_to_ordinal,
    civil_year,
    ordinal_to_civil,
)
from repro.timebase.dst import RULES
from repro.timebase.zones import get_region, region_keys
from synth_fixtures import BUILDERS, FIXTURE_PATH
from synth_oracle import (
    generate_bot_trace_loop,
    generate_crowd_loop,
    generate_shift_worker_trace_loop,
    generate_trace_loop,
    is_dst_walk,
    restricted_to_days_loop,
    sample_hours_choice,
    sorted_events_loop,
    utc_offset_walk,
)

SEEDS = st.integers(0, 2**32 - 1)

#: The clip bounds themselves, and shifts between them.
SHIFTS = st.one_of(
    st.sampled_from([-CHRONOTYPE_CLIP, 0.0, CHRONOTYPE_CLIP]),
    st.floats(-CHRONOTYPE_CLIP, CHRONOTYPE_CLIP),
)

#: numpy's Poisson sampler switches algorithm at a rate of 10.
RATES = st.one_of(
    st.sampled_from([0.05, 9.999, 10.0, 15.0]), st.floats(0.05, 15.0)
)

#: Windows of 0 and 1 days, windows across New Year (day -1 is
#: 2015-12-31; 365 is 2016-12-31) and windows anywhere, negative
#: ordinals included.
WINDOWS = st.one_of(
    st.tuples(st.integers(-800, 800), st.sampled_from([0, 1])),
    st.tuples(st.sampled_from([-12, 355, 720]), st.integers(10, 40)),
    st.tuples(st.integers(-800, 800), st.integers(0, 80)),
)


@st.composite
def user_specs(draw: st.DrawFn, user_id: str = "u") -> UserSpec:
    """A user anywhere on the parameter ranges, clamp and clip edges included.

    Weekend factors up to 8 make ``active_day_probability *
    weekend_factor`` reach the clamp at 1 often.
    """
    return UserSpec(
        user_id=user_id,
        region_key=draw(st.sampled_from(region_keys())),
        chronotype_shift=draw(SHIFTS),
        posts_per_active_day=draw(RATES),
        active_day_probability=draw(st.floats(0.15, 1.0)),
        weekend_factor=draw(st.one_of(st.just(1.0), st.floats(0.5, 8.0))),
        model=draw(st.sampled_from(list(CULTURES.values()))),
    )


def assert_same_draws(
    got: ActivityTrace,
    want: ActivityTrace,
    rng: np.random.Generator,
    oracle_rng: np.random.Generator,
) -> None:
    """Equal ids, stamp bytes and generator states; the streams go on alike."""
    assert got.user_id == want.user_id
    assert got.timestamps.tobytes() == want.timestamps.tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    assert rng.random() == oracle_rng.random()


class TestFrozenDigests:
    """Every builder reproduces the streams the per-day loops generated."""

    def test_the_fixture_names_every_builder(self):
        frozen = json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))
        assert list(frozen) == list(BUILDERS)

    @pytest.mark.parametrize("name", list(BUILDERS))
    def test_builder_matches_the_frozen_digest(self, name):
        frozen = json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))
        assert json.loads(json.dumps(BUILDERS[name]())) == frozen[name]


def test_numpy_choice_with_p_searches_the_cdf_of_its_uniforms():
    """The numpy fact the generators rest on.

    ``Generator.choice(24, n, p=pmf)`` draws ``random(n)`` and returns its
    right-side search in ``cdf = pmf.cumsum(); cdf /= cdf[-1]``
    (:meth:`DiurnalModel.hour_cdf`).  The generators draw those uniforms
    themselves, so a numpy release that changes ``choice`` fails here.
    Such a release would also change what the per-day loops generate,
    and with them every committed result.
    """
    choice_rng, search_rng = np.random.default_rng(30), np.random.default_rng(30)
    models = list(CULTURES.values())
    for draw in range(20_000):
        model = models[draw % len(models)]
        shift = (draw % 21 - 10) / 2.0
        n = draw % 11 + 1
        chosen = choice_rng.choice(24, size=n, p=model.pmf(shift))
        searched = np.searchsorted(
            model.hour_cdf(shift), search_rng.random(n), side="right"
        )
        np.testing.assert_array_equal(chosen, searched)
    assert choice_rng.bit_generator.state == search_rng.bit_generator.state


def test_a_uniform_on_a_cdf_step_takes_the_next_bin():
    """``hours_from_uniforms`` searches right, as ``choice`` does: a uniform
    equal to ``cdf[i]`` picks bin i + 1.  Random uniforms land on a step
    with probability about 2**-53, so only this case tells the sides apart."""
    cdf = CULTURES["canonical"].hour_cdf(1.5)
    hours = hours_from_uniforms(cdf, cdf[:-1], np.zeros(23))
    np.testing.assert_array_equal(hours, np.arange(1, 24))


class TestGeneratorsEqualTheDayLoops:
    @settings(max_examples=80, deadline=None)
    @given(spec=user_specs(), window=WINDOWS, seed=SEEDS)
    def test_generate_trace(self, spec, window, seed):
        start_day, n_days = window
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = generate_trace(spec, rng, start_day=start_day, n_days=n_days)
        want = generate_trace_loop(spec, oracle_rng, start_day=start_day, n_days=n_days)
        assert_same_draws(got, want, rng, oracle_rng)

    @settings(max_examples=30, deadline=None)
    @given(
        specs=st.lists(st.integers(0, 10**6), min_size=0, max_size=4).flatmap(
            lambda ids: st.tuples(*(user_specs(f"u{i}_{uid}") for i, uid in enumerate(ids)))
        ),
        window=WINDOWS,
        seed=SEEDS,
    )
    def test_generate_crowd_of_mixed_regions(self, specs, window, seed):
        start_day, n_days = window
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = generate_crowd(specs, rng, start_day=start_day, n_days=n_days)
        want = generate_crowd_loop(specs, oracle_rng, start_day=start_day, n_days=n_days)
        assert got.user_ids() == want.user_ids()
        for user_id in want.user_ids():
            assert got[user_id].timestamps.tobytes() == want[user_id].timestamps.tobytes()
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        assert rng.random() == oracle_rng.random()

    def test_generate_crowd_of_sampled_users(self):
        """``sample_population`` users, the parameters every builder uses."""
        for region_key in ("brazil", "new_york", "japan"):
            rng, oracle_rng = np.random.default_rng(3), np.random.default_rng(3)
            specs = sample_population(region_key, 12, rng)
            assert sample_population(region_key, 12, oracle_rng) == specs
            got = generate_crowd(specs, rng, start_day=-40, n_days=120)
            want = generate_crowd_loop(specs, oracle_rng, start_day=-40, n_days=120)
            assert got.user_ids() == want.user_ids()
            for trace in want:
                assert got[trace.user_id].timestamps.tobytes() == trace.timestamps.tobytes()
            assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(
        rate=st.one_of(st.sampled_from([0.01, 10.0, 12.0]), st.floats(0.0, 15.0)),
        window=WINDOWS,
        seed=SEEDS,
    )
    def test_generate_bot_trace(self, rate, window, seed):
        start_day, n_days = window
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = generate_bot_trace(
            "bot", rng, start_day=start_day, n_days=n_days, posts_per_day=rate
        )
        want = generate_bot_trace_loop(
            "bot", oracle_rng, start_day=start_day, n_days=n_days, posts_per_day=rate
        )
        assert_same_draws(got, want, rng, oracle_rng)

    @settings(max_examples=60, deadline=None)
    @given(
        rate=st.one_of(st.sampled_from([0.01, 10.0, 12.0]), st.floats(0.05, 15.0)),
        probability=st.floats(0.1, 1.0),
        rotation_days=st.one_of(st.integers(1, 10), st.integers(-5, -1)),
        model=st.sampled_from(list(CULTURES.values())),
        utc_offset=st.integers(-11, 12),
        window=WINDOWS,
        seed=SEEDS,
    )
    def test_generate_shift_worker_trace(
        self, rate, probability, rotation_days, model, utc_offset, window, seed
    ):
        start_day, n_days = window
        options = dict(
            start_day=start_day,
            n_days=n_days,
            posts_per_active_day=rate,
            active_day_probability=probability,
            rotation_days=rotation_days,
            model=model,
            utc_offset=utc_offset,
        )
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = generate_shift_worker_trace("shift", rng, **options)
        want = generate_shift_worker_trace_loop("shift", oracle_rng, **options)
        assert_same_draws(got, want, rng, oracle_rng)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 40),
        shift=SHIFTS,
        model=st.sampled_from(list(CULTURES.values())),
        seed=SEEDS,
    )
    def test_sample_hours(self, n, shift, model, seed):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = model.sample_hours(n, rng, chronotype_shift=shift)
        want = sample_hours_choice(model, n, oracle_rng, chronotype_shift=shift)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_a_curve_without_mass_is_refused_before_any_draw(self):
        silent = DiurnalModel("silent", (0.0,) * 24)
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="no finite mass"):
            silent.sample_hours(3, rng)
        assert rng.bit_generator.state == state

    def test_a_zero_rotation_is_refused(self):
        with pytest.raises(ValueError, match="rotation_days"):
            generate_shift_worker_trace("s", np.random.default_rng(1), rotation_days=0)


class TestDstRulesEqualTheCalendarWalk:
    FIRST = civil_to_ordinal(CivilDate(1990, 1, 1))
    LAST = civil_to_ordinal(CivilDate(2050, 12, 31))

    @pytest.mark.parametrize("name", sorted(RULES))
    def test_every_day_of_1990_to_2050(self, name):
        rule = RULES[name]
        days = np.arange(self.FIRST, self.LAST + 1)
        walked = [is_dst_walk(rule, int(day)) for day in days]
        assert [rule.is_dst(int(day)) for day in days] == walked
        expected = np.where(walked, rule.shift_hours, 0)
        np.testing.assert_array_equal(rule.offset_adjustments(days), expected)
        # Any order, repeats and a scalar give the same answers.
        shuffled = np.random.default_rng(0).permutation(np.repeat(days[::97], 2))
        np.testing.assert_array_equal(
            rule.offset_adjustments(shuffled), expected[shuffled - self.FIRST]
        )
        assert rule.offset_adjustments(days[100]) == expected[100]

    @pytest.mark.parametrize(
        "region_key", ["germany", "california", "new_south_wales", "brazil", "malaysia"]
    )
    def test_region_offsets(self, region_key):
        region = get_region(region_key)
        days = np.arange(-800, 800)
        np.testing.assert_array_equal(
            region.utc_offsets(days), [utc_offset_walk(region, int(day)) for day in days]
        )
        assert region.utc_offsets(np.zeros(0, dtype=np.int64)).shape == (0,)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=5))
    def test_civil_year_is_the_walked_year(self, ordinals):
        years = [ordinal_to_civil(ordinal).year for ordinal in ordinals]
        assert [civil_year(ordinal) for ordinal in ordinals] == years
        assert civil_year(np.asarray(ordinals, dtype=np.int64)).tolist() == years


class TestSortedEvents:
    @staticmethod
    def _scenario(traces: TraceSet) -> DriftScenario:
        return DriftScenario(
            kind="relocation",
            traces=traces,
            move_day=0,
            shift_hours=6,
            base_offset=1,
            moved_ids=frozenset(),
        )

    def test_users_sharing_stamps_are_ordered_by_id(self):
        traces = TraceSet(
            [
                ActivityTrace("b", [5.0, 1.0, 3.0]),
                ActivityTrace("a", [3.0, 5.0, 5.0]),
                ActivityTrace("c", [-86400.0, 3.0]),
                ActivityTrace("aa", [3.0]),
                ActivityTrace("A", [5.0]),
                ActivityTrace("empty", []),
            ]
        )
        scenario = self._scenario(traces)
        got = scenario.sorted_events()
        assert got == sorted_events_loop(scenario)
        assert got[:2] == [(-86400.0, "c"), (1.0, "b")]
        assert all(type(stamp) is float and type(user) is str for stamp, user in got)

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=4),
            st.lists(st.integers(-3, 3).map(lambda k: k * 1800.0), max_size=6),
            max_size=8,
        )
    )
    def test_equals_sorted_pairs(self, stamps_by_user):
        traces = TraceSet(
            ActivityTrace(user_id, stamps) for user_id, stamps in stamps_by_user.items()
        )
        scenario = self._scenario(traces)
        assert scenario.sorted_events() == sorted_events_loop(scenario)

    def test_a_generated_scenario(self):
        scenario = build_relocation_scenario(n_users=30, n_days=60, seed=4)
        assert scenario.sorted_events() == sorted_events_loop(scenario)


class TestRestrictedToDays:
    @staticmethod
    def _boundary_stamps(days: list[int]) -> list[float]:
        """Each midnight, a float either side of it, and the day's last second."""
        stamps = []
        for day in days:
            midnight = day * 86400.0
            stamps += [
                midnight,
                float(np.nextafter(midnight, -np.inf)),
                float(np.nextafter(midnight, np.inf)),
                midnight + 86399.5,
            ]
        return stamps

    def test_the_predicate_runs_once_per_distinct_day_in_day_order(self):
        trace = ActivityTrace("u", self._boundary_stamps([-3, -1, 0, 2]) + [-1e-9])
        asked: list[int] = []

        def predicate(day: int) -> bool:
            asked.append(day)
            return day % 2 == 0

        kept = trace.restricted_to_days(predicate)
        assert asked == sorted(set(asked))
        assert asked == sorted({int(stamp // 86400.0) for stamp in trace.timestamps})
        assert all(type(day) is int for day in asked)
        assert kept.timestamps.tobytes() == restricted_to_days_loop(
            trace, lambda day: day % 2 == 0
        ).timestamps.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        days=st.lists(st.integers(-500, 500), max_size=6),
        extra=st.lists(st.floats(-5e7, 5e7), max_size=20),
        kept_days=st.frozensets(st.integers(-501, 501)),
    )
    def test_equals_the_per_post_loop(self, days, extra, kept_days):
        trace = ActivityTrace("u", self._boundary_stamps(days) + extra)

        def predicate(day: int) -> bool:
            return day in kept_days or day % 5 == 0

        got = trace.restricted_to_days(predicate)
        want = restricted_to_days_loop(trace, predicate)
        assert got.user_id == want.user_id
        assert got.timestamps.tobytes() == want.timestamps.tobytes()
