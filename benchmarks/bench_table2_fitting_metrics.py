"""E-T2: Table II -- Gaussian fitting metrics for every placement.

Paper shape: every real fit's average/std point-by-point distance sits
around 0.007-0.014 / 0.006-0.016, an order of magnitude below the
baseline (the Malaysian fit shifted 12 hours: 0.081 / 0.070).
"""

from __future__ import annotations

from repro.analysis.experiments import run_table2
from repro.analysis.report import ascii_table

#: The paper's Table II values, for side-by-side printing.
_PAPER = {
    "Malaysian Twitter": (0.009, 0.013),
    "German Twitter": (0.009, 0.009),
    "French Twitter": (0.008, 0.010),
    "Synthetic dataset (a)": (0.011, 0.010),
    "Synthetic dataset (b)": (0.012, 0.010),
    "CRD Club": (0.007, 0.006),
    "Italian DarkNet Community": (0.014, 0.016),
    "Dream Market forum": (0.011, 0.008),
    "The Majestic Garden": (0.009, 0.011),
    "Pedo support community": (0.012, 0.010),
    "Baseline": (0.081, 0.070),
}


def test_table2_fitting_metrics(benchmark, context, artifact_writer):
    rows = benchmark.pedantic(
        run_table2,
        args=(context,),
        kwargs={"forum_scale": 1.0},
        rounds=1,
        iterations=1,
    )
    rendered = ascii_table(
        ["Dataset", "avg (ours)", "std (ours)", "avg (paper)", "std (paper)"],
        [
            (
                row.dataset,
                row.average,
                row.standard_deviation,
                _PAPER[row.dataset][0],
                _PAPER[row.dataset][1],
            )
            for row in rows
        ],
        title="Table II -- Gaussian fitting metrics (ours vs paper)",
    )
    artifact_writer("table2_fitting_metrics", rendered)

    by_label = {row.dataset: row for row in rows}
    baseline = by_label["Baseline"]
    fits = [row for row in rows if row.dataset != "Baseline"]
    # Shape claim 1: real fits are uniformly small.
    assert all(row.average < 0.03 for row in fits)
    # Shape claim 2: the baseline dwarfs every real fit.
    assert all(baseline.average > 3 * row.average for row in fits)
    # Shape claim 3: baseline magnitude matches the paper's ballpark.
    assert 0.03 < baseline.average < 0.15
