"""E-F12: Fig. 12 -- The Majestic Garden placement.

Paper shape: two components with the ordering *reversed* vs Dream Market
-- the larger on UTC-6 (a mostly American forum), the smaller on UTC+1.
"""

from __future__ import annotations

from _shared import component_zone_errors, render_forum_study

from repro.analysis.experiments import run_forum_case_study


def test_fig12_majestic_garden(benchmark, context, artifact_writer):
    study = benchmark.pedantic(
        run_forum_case_study,
        args=("majestic_garden", context),
        rounds=1,
        iterations=1,
    )
    artifact_writer("fig12_majestic_garden", render_forum_study(study, "Fig. 12"))
    report = study.report
    assert report.mixture.k == 2
    ranked = sorted(report.mixture.components, key=lambda c: -c.weight)
    assert abs(ranked[0].mean - (-6)) <= 1.2
    assert abs(ranked[1].mean - 1) <= 1.2
    assert ranked[0].weight > ranked[1].weight
    assert max(component_zone_errors(study)) <= 1.2
