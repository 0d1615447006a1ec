"""E-F10: Fig. 10 -- Italian DarkNet Community placement.

Paper shape: a single component "centered close to the UTC+1 and slightly
shifted towards UTC+2", peak in the Italian zone.
"""

from __future__ import annotations

from _shared import render_forum_study

from repro.analysis.experiments import run_forum_case_study


def test_fig10_idc_placement(benchmark, context, artifact_writer):
    study = benchmark.pedantic(
        run_forum_case_study,
        args=("idc", context),
        rounds=1,
        iterations=1,
    )
    artifact_writer("fig10_idc_placement", render_forum_study(study, "Fig. 10"))
    report = study.report
    assert report.mixture.k == 1
    # Centered near UTC+1, possibly pulled toward UTC+2 as in the paper.
    assert 0.5 <= report.mixture.dominant().mean <= 2.6
    assert study.scrape.server_offset_hours == 1.0
