"""E-F8: Fig. 8 -- the CRD Club crowd profile and its Pearson vs generic.

Paper: the CRD Club profile correlates 0.93 with the generic Twitter
profile, supporting the claim that Dark Web access patterns mirror the
standard web's.
"""

from __future__ import annotations

from repro.analysis.experiments import run_forum_case_study
from repro.analysis.report import ascii_bars


def test_fig8_crd_profile(benchmark, context, artifact_writer):
    study = benchmark.pedantic(
        run_forum_case_study,
        args=("crd_club", context),
        rounds=1,
        iterations=1,
    )
    chart = ascii_bars(
        list(range(24)),
        list(study.report.crowd_profile.mass),
        title="Fig. 8 -- CRD Club crowd profile (UTC clocks)",
    )
    artifact_writer(
        "fig8_crd_profile",
        "\n".join(
            [
                chart,
                f"Pearson vs generic (aligned): {study.pearson_vs_generic:.3f} "
                "(paper: 0.93)",
            ]
        ),
    )
    assert study.pearson_vs_generic > 0.85
