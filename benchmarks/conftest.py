"""Shared benchmark fixtures.

Benchmarks regenerate every table and figure of the paper at meaningful
scale (forum crowds at the paper's user counts; the Twitter ground-truth
dataset at 4% of Table I, which keeps reference quality and generates,
references included, in well under a second).  Each bench also writes
its reproduced artifact into ``benchmarks/results/`` so the rows/series
survive output capture.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.experiments import ExperimentContext, make_context

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def context() -> ExperimentContext:
    return make_context(seed=2016, scale=0.04, n_days=366)


@pytest.fixture(scope="session")
def artifact_writer():
    RESULTS_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")

    return write
