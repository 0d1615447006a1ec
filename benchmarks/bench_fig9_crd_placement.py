"""E-F9: Fig. 9 -- CRD Club placement.

Paper shape: a single Gaussian component whose mean falls between UTC+3
and UTC+4 (the Russian-speaking world), with tiny fit-distance metrics
(paper: avg 0.007, std 0.006).
"""

from __future__ import annotations

from _shared import render_forum_study

from repro.analysis.experiments import run_forum_case_study


def test_fig9_crd_placement(benchmark, context, artifact_writer):
    study = benchmark.pedantic(
        run_forum_case_study,
        args=("crd_club", context),
        kwargs={"seed": 8},
        rounds=1,
        iterations=1,
    )
    artifact_writer("fig9_crd_placement", render_forum_study(study, "Fig. 9"))
    report = study.report
    assert report.mixture.k == 1
    assert 2.4 <= report.mixture.dominant().mean <= 4.6
    assert report.fit_metrics.average < 0.02
    assert study.scrape.server_offset_hours == 3.0
