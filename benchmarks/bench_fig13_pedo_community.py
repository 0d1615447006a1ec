"""E-F13: Fig. 13 + Sec. V-F -- Pedo Support Community placement.

Paper shape: three components -- the highest between UTC-8 and UTC-7, a
second important one at UTC-3 and a smaller one at UTC+4 -- and, among
the five most active users, a southern-hemisphere majority (the paper
finds 3/5 southern, pointing at Southern Brazil / Paraguay).
"""

from __future__ import annotations

from _shared import component_zone_errors, render_forum_study

from repro.analysis.experiments import run_forum_case_study
from repro.core.hemisphere import HemisphereVerdict


def test_fig13_pedo_community(benchmark, context, artifact_writer):
    study = benchmark.pedantic(
        run_forum_case_study,
        args=("pedo_community", context),
        kwargs={"hemisphere_top_n": 5},
        rounds=1,
        iterations=1,
    )
    artifact_writer("fig13_pedo_community", render_forum_study(study, "Fig. 13"))
    report = study.report
    assert report.mixture.k == 3
    means = sorted(component.mean for component in report.mixture.components)
    assert -9.0 <= means[0] <= -6.0  # the US-Pacific component (UTC-8/-7)
    assert -4.2 <= means[1] <= -1.8  # the South-American component (UTC-3)
    assert 1.0 <= means[2] <= 5.5  # the small eastern component (UTC+4)
    assert max(component_zone_errors(study)) <= 2.5
    # Hemisphere test on the top-5: the southern component is visible.
    verdicts = [result.verdict for result in report.hemisphere]
    assert len(verdicts) == 5
    assert verdicts.count(HemisphereVerdict.SOUTHERN) >= 1
