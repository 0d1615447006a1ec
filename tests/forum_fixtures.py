"""The frozen forum case-study fixture and the script that wrote it.

Usage::

    PYTHONPATH=src python tests/forum_fixtures.py OUTDIR

Figs. 8-13 populate a forum whose server clock is offset from UTC,
scrape it (probe-post calibration, then an (author, timestamp) dump) and
geolocate the scrape.  ``case_studies.json`` holds one record per case
of :data:`CASES`, at forum scale 0.3 against the tier-1 session context:

* ``traces_sha256``: SHA-256 over every scraped trace, in scrape order
  (the id's UTF-8 bytes, a NUL, the post count as 8 little-endian bytes,
  then the float64 stamps);
* ``server_offset_hours`` and ``n_posts`` of the scrape;
* the report's ``summary()`` and the SHA-256 of its ``user_zones``
  rendered by ``json.dumps(..., sort_keys=True)``;
* the hemisphere verdicts, as ``[user_id, verdict]`` pairs.

The committed file was written by the code that reached each forum
through a simulated Tor rendezvous, and that writer refused to write
unless a direct scrape gave the same record.  The Tor simulation is gone;
this script now writes what the direct scrape records, and
``TestFrozenCaseStudies`` in ``tests/test_experiments.py`` holds the
direct path to the committed file.  Do not regenerate it to make that
test pass.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any

import numpy as np

from repro.analysis.experiments import (
    ExperimentContext,
    ForumCaseStudy,
    make_context,
    run_forum_case_study,
)

#: Where the committed fixture lives.
FIXTURE_PATH = Path(__file__).parent / "fixtures" / "forum" / "case_studies.json"

#: Forum scale of every case.
SCALE = 0.3

#: Case name -> ``run_forum_case_study`` arguments (forum key + keywords).
CASES: dict[str, tuple[str, dict[str, Any]]] = {
    "crd_club_seed7": ("crd_club", {"seed": 7}),
    "crd_club_seed8": ("crd_club", {"seed": 8}),
    "idc": ("idc", {}),
    "dream_market": ("dream_market", {}),
    "majestic_garden": ("majestic_garden", {}),
    "pedo_community": ("pedo_community", {"hemisphere_top_n": 5}),
}


def fixture_context() -> ExperimentContext:
    """The tier-1 session context (``tests/conftest.py``)."""
    return make_context(seed=2016, scale=0.02, n_days=366)


def traces_sha256(study: ForumCaseStudy) -> str:
    digest = hashlib.sha256()
    for trace in study.scrape.traces:
        stamps = np.ascontiguousarray(trace.timestamps, dtype="<f8")
        digest.update(trace.user_id.encode("utf-8") + b"\x00")
        digest.update(len(stamps).to_bytes(8, "little"))
        digest.update(stamps.tobytes())
    return digest.hexdigest()


def record(study: ForumCaseStudy) -> dict[str, Any]:
    """What the fixture holds of one case study."""
    report = study.report
    zones = json.dumps(report.user_zones, sort_keys=True).encode("utf-8")
    return {
        "traces_sha256": traces_sha256(study),
        "server_offset_hours": study.scrape.server_offset_hours,
        "n_posts": study.scrape.n_posts,
        "summary": report.summary(),
        "user_zones_sha256": hashlib.sha256(zones).hexdigest(),
        "hemisphere": [
            [result.user_id, result.verdict.value] for result in report.hemisphere
        ],
    }


def run_case(name: str, context: ExperimentContext) -> dict[str, Any]:
    forum_key, options = CASES[name]
    return record(run_forum_case_study(forum_key, context, scale=SCALE, **options))


def render(records: dict[str, dict[str, Any]]) -> str:
    return json.dumps(records, indent=2) + "\n"


def write_fixture(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    context = fixture_context()
    records = {name: run_case(name, context) for name in CASES}
    (out / FIXTURE_PATH.name).write_text(render(records), encoding="utf-8")


if __name__ == "__main__":
    write_fixture(Path(sys.argv[1]))
