"""E-H: Sec. V-F -- hemisphere classification experiments.

Paper shape: the 5 most active users of the UK, Germany and Italy all
classify northern; the 5 most active Brazilians classify southern
(paper: 20/20); on the Pedo Support Community a good part of the most
active users classify southern.
"""

from __future__ import annotations

from repro.analysis.experiments import (
    run_forum_case_study,
    run_hemisphere_validation,
)
from repro.analysis.report import ascii_table
from repro.core.hemisphere import HemisphereVerdict


def test_hemisphere_country_validation(benchmark, context, artifact_writer):
    validations = benchmark.pedantic(
        run_hemisphere_validation, args=(context,), rounds=1, iterations=1
    )
    rows = [
        (
            validation.region_key,
            validation.expected.value,
            f"{validation.n_correct()}/{len(validation.results)}",
            " ".join(result.verdict.value for result in validation.results),
        )
        for validation in validations
    ]
    artifact_writer(
        "hemisphere_validation",
        ascii_table(
            ["region", "expected", "correct", "verdicts"],
            rows,
            title="Sec. V-F -- hemisphere validation, 5 most active users "
            "(paper: 20/20)",
        ),
    )
    total = sum(len(validation.results) for validation in validations)
    correct = sum(validation.n_correct() for validation in validations)
    assert total == 20
    assert correct >= 15  # paper: 20/20; synthetic noise allows a few misses
    # No user of a northern country may classify southern (or vice versa).
    for validation in validations:
        wrong_pole = (
            HemisphereVerdict.SOUTHERN
            if validation.expected.value == "northern"
            else HemisphereVerdict.NORTHERN
        )
        assert all(result.verdict is not wrong_pole for result in validation.results)


def test_hemisphere_pedo_forum(benchmark, context, artifact_writer):
    study = benchmark.pedantic(
        run_forum_case_study,
        args=("pedo_community", context),
        kwargs={"hemisphere_top_n": 5, "seed": 11},
        rounds=1,
        iterations=1,
    )
    verdicts = [result.verdict for result in study.report.hemisphere]
    artifact_writer(
        "hemisphere_pedo",
        "Pedo Support Community, 5 most active users (paper: 3 southern, "
        "2 northern):\n"
        + "\n".join(
            f"  {result.user_id}: {result.verdict.value}"
            for result in study.report.hemisphere
        ),
    )
    assert len(verdicts) == 5
    assert verdicts.count(HemisphereVerdict.SOUTHERN) >= 1
