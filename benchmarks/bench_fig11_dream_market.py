"""E-F11: Fig. 11 -- Dream Market forum placement.

Paper shape: two components -- the larger in UTC+1 (Europe), the smaller
in UTC-6 (US central) -- with fit metrics avg 0.011 / std 0.008.
"""

from __future__ import annotations

from _shared import component_zone_errors, render_forum_study

from repro.analysis.experiments import run_forum_case_study


def test_fig11_dream_market(benchmark, context, artifact_writer):
    study = benchmark.pedantic(
        run_forum_case_study,
        args=("dream_market", context),
        rounds=1,
        iterations=1,
    )
    artifact_writer("fig11_dream_market", render_forum_study(study, "Fig. 11"))
    report = study.report
    assert report.mixture.k == 2
    ranked = sorted(report.mixture.components, key=lambda c: -c.weight)
    # Who wins: Europe is the major component, US central the minor one.
    assert abs(ranked[0].mean - 1) <= 1.2
    assert abs(ranked[1].mean - (-6)) <= 1.2
    assert ranked[0].weight > ranked[1].weight
    assert max(component_zone_errors(study)) <= 1.2
    assert report.fit_metrics.average < 0.02
