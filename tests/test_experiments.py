"""Smoke + shape tests of every experiment driver (small scales)."""

from __future__ import annotations

import json

import pytest

from forum_fixtures import CASES, FIXTURE_PATH, run_case
from repro.analysis.experiments import (
    run_fig1_user_profile,
    run_fig2_profiles,
    run_fig6_mixture,
    run_fig7_flat,
    run_forum_case_study,
    run_hemisphere_validation,
    run_single_country_placement,
    run_table1,
    run_table2,
)
from repro.core.hemisphere import HemisphereVerdict
from repro.timebase.zones import Hemisphere


class TestTable1:
    def test_rows_and_counts(self, context):
        rows = run_table1(context)
        assert len(rows) == 14
        by_name = {name: (paper, ours) for name, paper, ours in rows}
        assert by_name["Brazil"][0] == 3763
        assert all(ours > 0 for _, _, ours in rows)


class TestFig1:
    def test_user_profile_shape(self, context):
        result = run_fig1_user_profile(context)
        profile = result.profile
        # Night trough must be far below the day/evening activity.
        night = sum(profile[h] for h in range(2, 6))
        evening = sum(profile[h] for h in range(18, 23))
        assert evening > 2 * night


class TestFig2:
    def test_profiles_agree(self, context):
        result = run_fig2_profiles(context)
        assert result.pearson_regional_vs_generic > 0.75
        assert result.average_pairwise_pearson > 0.8


class TestSingleCountry:
    @pytest.mark.parametrize(
        "region_key", ["germany", "france", "malaysia"]
    )
    def test_center_recovered(self, context, region_key):
        result = run_single_country_placement(region_key, context, n_users=120)
        assert result.center_error() <= 1.0
        assert 0.5 <= result.fit.sigma <= 4.0

    def test_fit_metrics_small(self, context):
        result = run_single_country_placement("malaysia", context, n_users=120)
        assert result.fit_metrics.average < 0.03


class TestFig6:
    def test_relocated_recovers_three_zones(self, context):
        result = run_fig6_mixture("relocated", context, users_per_component=60)
        assert result.mixture.k == 3
        assert result.max_center_error() <= 1.2

    def test_merged_recovers_three_zones(self, context):
        result = run_fig6_mixture("merged", context, users_per_component=60)
        assert result.mixture.k == 3
        assert result.max_center_error() <= 1.2

    def test_unknown_variant(self, context):
        with pytest.raises(ValueError):
            run_fig6_mixture("bogus", context)


class TestFig7:
    def test_bots_flat_and_removed(self, context):
        result = run_fig7_flat(context, n_humans=50, n_bots=8)
        assert result.bot_is_flat
        assert result.n_removed >= 6
        assert result.removed_are_bots >= 0.9
        assert result.bot_profile.flatness() < 0.2


class TestForumCaseStudies:
    def test_idc_end_to_end(self, context):
        study = run_forum_case_study("idc", context, scale=1.0)
        assert study.scrape.server_offset_hours == pytest.approx(1.0)
        assert study.report.mixture.k == 1
        assert 0.5 <= study.report.mixture.dominant().mean <= 2.8

    def test_dream_market_two_components(self, context):
        study = run_forum_case_study("dream_market", context, scale=0.5)
        assert study.report.mixture.k == 2
        zones = sorted(study.report.zone_offsets())
        assert abs(zones[0] - (-6)) <= 1
        assert abs(zones[1] - 1) <= 1


class TestFrozenCaseStudies:
    """Figs. 8-13's scrapes and verdicts replay the frozen record exactly.

    ``tests/fixtures/forum/case_studies.json`` was recorded through the
    simulated Tor rendezvous the forum case studies used to scrape over,
    and checked against a direct scrape (see ``tests/forum_fixtures.py``).
    """

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_case_matches_the_frozen_record(self, context, name):
        frozen = json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))
        assert frozen.keys() == CASES.keys()
        assert run_case(name, context) == frozen[name]


class TestTable2:
    def test_baseline_dominates(self, context):
        rows = run_table2(context, forum_scale=0.35)
        labels = [row.dataset for row in rows]
        assert labels[0] == "Malaysian Twitter"
        assert labels[-1] == "Baseline"
        assert len(rows) == 11
        baseline = rows[-1]
        fits = rows[:-1]
        # The paper's point: every real fit beats the shifted baseline.
        assert all(row.average < baseline.average for row in fits)


class TestHemisphereValidation:
    def test_mostly_correct(self, context):
        validations = run_hemisphere_validation(context, crowd_size=60)
        total = sum(len(v.results) for v in validations)
        correct = sum(v.n_correct() for v in validations)
        assert correct / total >= 0.7
        brazil = next(v for v in validations if v.region_key == "brazil")
        assert brazil.expected is Hemisphere.SOUTHERN
        southern = sum(
            1
            for result in brazil.results
            if result.verdict is HemisphereVerdict.SOUTHERN
        )
        assert southern >= 3
