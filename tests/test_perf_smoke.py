"""``benchmarks/perf_smoke.py`` gates every smoke row and every timing.

The smoke gate compares the timings of ``perf_baseline._timings`` with
the ``smoke`` rows of ``BENCH_core.json``.  A row that is recorded but
no longer timed, or a timing with no recorded row, would otherwise drop
out of the gate without a word, so both must fail and name the row.
The timings and the gate's other checks are stubbed here: these tests
exercise the comparison, not the machine.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

FAST = {"fast_s": 0.001}


@pytest.fixture()
def run_gate(monkeypatch, tmp_path, capsys):
    """``perf_smoke.main()`` over stubbed *recorded* rows and *current* timings."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import perf_smoke

    def run(recorded, current):
        bench = tmp_path / "BENCH_core.json"
        bench.write_text(json.dumps({"smoke": recorded}), encoding="utf-8")
        monkeypatch.setattr(perf_smoke, "BENCH_PATH", bench)
        monkeypatch.setattr(perf_smoke, "_timings", lambda n_users, repeat: current)
        for name in dir(perf_smoke):
            if name.endswith("_check"):
                monkeypatch.setattr(perf_smoke, name, lambda: True)
        status = perf_smoke.main()
        captured = capsys.readouterr()
        return status, captured.out + captured.err

    return run


def test_matching_rows_within_tolerance_pass(run_gate):
    status, output = run_gate({"a": FAST, "b": FAST}, {"a": FAST, "b": FAST})
    assert status == 0
    assert "FAIL" not in output


def test_a_recorded_row_no_longer_timed_fails_by_name(run_gate):
    status, output = run_gate({"a": FAST, "gone": FAST}, {"a": FAST})
    assert status == 1
    assert "gone" in output and "no longer timed" in output


def test_a_timing_without_a_recorded_row_fails_by_name(run_gate):
    status, output = run_gate({"a": FAST}, {"a": FAST, "fresh": FAST})
    assert status == 1
    assert "fresh" in output and "no recorded row" in output


def test_a_regression_still_fails(run_gate):
    status, output = run_gate({"a": FAST}, {"a": {"fast_s": 0.5}})
    assert status == 1
    assert "REGRESSION" in output and "a 500.00x" in output
