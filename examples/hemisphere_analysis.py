"""The DST hemisphere test (paper Sec. V-F).

Run with::

    python examples/hemisphere_analysis.py

Validates the northern/southern classifier on the 5 most active users of
four DST countries, then applies it to the most active users of the Pedo
Support Community -- the paper's way of showing that an important part of
that crowd lives in Southern Brazil / Paraguay.
"""

from __future__ import annotations

from repro.analysis.experiments import (
    make_context,
    run_forum_case_study,
    run_hemisphere_validation,
)
from repro.analysis.report import ascii_table


def main() -> None:
    print("building references...")
    context = make_context(seed=2016, scale=0.02)

    print("validating on known-origin crowds...")
    validations = run_hemisphere_validation(context, crowd_size=80)
    rows = [
        (
            validation.region_key,
            validation.expected.value,
            f"{validation.n_correct()}/{len(validation.results)}",
            " ".join(result.verdict.value for result in validation.results),
        )
        for validation in validations
    ]
    print()
    print(
        ascii_table(
            ["region", "expected", "correct", "verdicts (most active first)"],
            rows,
            title="Hemisphere validation (paper: 20/20)",
        )
    )

    print()
    print("applying to the Pedo Support Community's most active users...")
    study = run_forum_case_study(
        "pedo_community", context, scale=1.0, hemisphere_top_n=5
    )
    for result in study.report.hemisphere:
        print(
            f"  {result.user_id}: {result.verdict.value} "
            f"(asymmetry {result.margin():.2f})"
        )
    southern = sum(
        1 for result in study.report.hemisphere if result.verdict.value == "southern"
    )
    print(
        f"\n{southern}/5 most active users classify as southern hemisphere "
        "(paper found 3/5: Southern Brazil or Paraguay)"
    )


if __name__ == "__main__":
    main()
