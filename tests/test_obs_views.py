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


@pytest.mark.parametrize("field, value", [("seed", 7), ("command", "monitor")])
def test_stats_refuses_an_edited_manifest(tmp_path, capsys, field, value):
    document = json.loads(_frozen("manifest.json"))
    document[field] = value
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    with pytest.raises(SystemExit, match="edited after it was written"):
        main(["stats", str(path)])
    assert capsys.readouterr().out == ""


def test_stats_refuses_a_manifest_without_its_command(tmp_path, capsys):
    document = json.loads(_frozen("manifest.json"))
    del document["command"]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    with pytest.raises(SystemExit, match="run manifest has no 'command' field"):
        main(["stats", str(path)])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("artifact", sorted(ARTIFACTS))
def test_load_artifact_reads_each_file_once(monkeypatch, artifact):
    """The kind is found and the content parsed from one read of the file."""
    from repro.obs.artifacts import load_artifact

    reads: list[Path] = []
    read_text = Path.read_text

    def counted(self: Path, *args: object, **kwargs: object) -> str:
        reads.append(self)
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counted)
    kind, _ = load_artifact(FIXTURE_DIR / artifact)
    assert kind
    assert reads == [FIXTURE_DIR / artifact]


@pytest.mark.parametrize(
    "artifact, loader",
    [
        ("series.jsonl", "repro.obs.timeseries:load_series_jsonl"),
        ("health.jsonl", "repro.obs.health:load_health_jsonl"),
        ("profile.json", "repro.obs.profiler:load_profile"),
    ],
)
def test_path_loaders_and_load_artifact_agree(artifact, loader):
    """Each kind has one parser; its path loader and ``load_artifact`` share it."""
    import importlib

    from repro.obs.artifacts import load_artifact

    module, name = loader.split(":")
    by_path = getattr(importlib.import_module(module), name)(FIXTURE_DIR / artifact)
    _, content = load_artifact(FIXTURE_DIR / artifact)
    if artifact == "series.jsonl":
        assert content.header == by_path.header and content.names() == by_path.names()
    else:
        assert content == by_path


def test_a_wrong_kind_is_refused_naming_the_path(tmp_path):
    from repro.obs.timeseries import load_series_jsonl

    path = tmp_path / "not-series.jsonl"
    path.write_text(_frozen("health.jsonl"), encoding="utf-8")
    with pytest.raises(ValueError, match="not-series.jsonl: expected kind"):
        load_series_jsonl(path)
