"""Self-test of the benchmark at tiny sizes.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py

Every workload must emit each named metric with its unit and no failed
operation, must count a verdict whose placement was shifted by one zone
as a failure, and must trip the stage-sum check when the span of one of
its main stages is left out of the trace.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from harness import stage_sum_ok  # noqa: E402

TINY = {
    "census": gen.CensusSizes(n_crowds=4, min_users=150, max_users=300),
    "store_replay": gen.StoreSizes(n_users=4_000),
    "monitor_drift": gen.MonitorSizes(n_users=60, n_events=3_000, n_days=90),
}

#: A stage of each workload that takes well over 5% of its traced wall.
MAIN_STAGE = {
    "census": "em.mixture",
    "store_replay": "shard.fanout",
    "monitor_drift": "streaming.snapshot",
}

#: Where the checked verdicts of each workload get their placement from.
PLACEMENT_SITES = [
    ("census", "repro.core.geolocate"),
    ("store_replay", "repro.core.geolocate"),
    ("store_replay", "repro.core.streaming"),
    ("monitor_drift", "repro.core.streaming"),
]


def _run(tmp_path, name, trace, **kwargs):
    return run.run(name, 7, 0.5, trace, sizes=TINY[name], state=tmp_path, **kwargs)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(tmp_path, name, trace):
    result, record = _run(tmp_path, name, trace)
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert result["failed"] == 0, record["jobs"]
    assert result["correct"] and result["attempted"] >= 1
    assert {metric: entry["unit"] for metric, entry in result["metrics"].items()} == expected
    for metric, entry in result["metrics"].items():
        assert isinstance(entry["value"], float), metric
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    else:
        assert stage_sum_ok(result["metrics"]["trace.stage_sum_ratio"]["value"])
    assert record["stamp"]["manifest_fingerprint"]


def _shift_one_zone(place):
    from repro.core.placement import PlacementDistribution

    def shifted(matrix, references, metric="linear"):
        assignments, placement = place(matrix, references, metric)
        fractions = placement.fractions
        return (
            {user: zone + 1 if zone < 12 else -11 for user, zone in assignments.items()},
            PlacementDistribution(fractions[-1:] + fractions[:-1], placement.n_users),
        )

    return shifted


@pytest.mark.parametrize(("name", "site"), PLACEMENT_SITES)
def test_a_shifted_placement_is_a_failure(tmp_path, monkeypatch, name, site):
    import importlib

    module = importlib.import_module(site)
    monkeypatch.setattr(
        module, "place_profile_matrix", _shift_one_zone(module.place_profile_matrix)
    )
    result, _ = _run(tmp_path, name, False)
    assert result["failed"] >= 1
    assert not result["correct"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_a_dropped_stage_span_trips_the_stage_sum_check(tmp_path, name):
    result, record = _run(tmp_path, name, True, drop=frozenset({MAIN_STAGE[name]}))
    assert not stage_sum_ok(result["metrics"]["trace.stage_sum_ratio"]["value"])
    failures = [message for job in record["jobs"] for message in job["failures"]]
    assert any("stage self-times" in message for message in failures)
    assert not result["correct"]
