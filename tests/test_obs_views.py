"""``darkcrowd stats`` and ``darkcrowd dashboard`` over one frozen artifact set.

The artifacts and their renderings live in ``tests/fixtures/obs/`` and
were written by ``tests/obs_fixtures.py`` (see its docstring).  Both
views must keep printing those bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from obs_fixtures import ARTIFACTS, FIXTURE_DIR, dashboard_html, stats_output
from repro.cli import main


def _frozen(name: str) -> str:
    return (FIXTURE_DIR / name).read_text(encoding="utf-8")


def _stats_rendering(artifact: str) -> str:
    return _frozen(f"{Path(artifact).stem}.stats.txt")


@pytest.mark.parametrize("artifact", sorted(ARTIFACTS))
def test_stats_prints_the_frozen_rendering(artifact):
    assert stats_output(FIXTURE_DIR / artifact) == _stats_rendering(artifact)


def test_dashboard_writes_the_frozen_page(tmp_path):
    page = dashboard_html(FIXTURE_DIR, tmp_path / "dashboard.html")
    assert page == _frozen("dashboard.html")


def test_stats_prints_each_artifact_in_turn():
    order = ["health.jsonl", "trace.json", "metrics.json", "series.jsonl",
             "profile.json", "manifest.json"]
    printed = stats_output(*(FIXTURE_DIR / name for name in order))
    assert printed == "".join(_stats_rendering(name) for name in order)


def test_trace_metadata_events_are_left_out_of_the_digest(tmp_path):
    document = json.loads(_frozen("trace.json"))
    document["traceEvents"][:0] = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
         "args": {"name": "darkcrowd"}},
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
         "args": {"name": "main"}},
    ]
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    assert stats_output(path) == _stats_rendering("trace.json")


@pytest.mark.parametrize(
    "flag, artifact", [("--trace", "metrics.json"), ("--series", "health.jsonl")]
)
def test_dashboard_refuses_an_artifact_of_another_kind(tmp_path, flag, artifact):
    out = tmp_path / "dashboard.html"
    with pytest.raises(SystemExit, match="expected kind"):
        main(["dashboard", flag, str(FIXTURE_DIR / artifact), "--out", str(out)])
    assert not out.exists()
