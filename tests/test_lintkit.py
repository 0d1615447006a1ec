"""Tests for the ``darkcrowd lint`` engine (:mod:`repro.lintkit`).

Each rule has a *bad* fixture it must fire on and a *good* fixture it
must stay quiet on (``tests/fixtures/lintkit/``).  The fixtures are real
Python files but live under a ``fixtures`` directory the engine never
descends into, so the self-lint test at the bottom can assert the whole
shipped tree is clean while the corpus of known violations sits inside
it.  Scoped rules (DC001's clocks exemption, DC004's library-only scope,
DC005's ``core/`` scope) are exercised by spoofing the path given to
:func:`lint_source`.  The rule tables in README and DESIGN.md Sec. 9 are
checked against the registry, so a rule cannot be added or retired
without its documentation following.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.lintkit import (
    DEFAULT_EXCLUDED_DIRS,
    PARSE_ERROR_ID,
    REPORT_KIND,
    REPORT_VERSION,
    all_rules,
    detect_project_root,
    get_rule,
    iter_python_files,
    lint_paths,
    lint_source,
    render_json,
    render_text,
    resolve_selection,
)

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "fixtures" / "lintkit"

#: A path where *every* rule is in scope: library code, under ``core/``,
#: not the clocks module and not the CLI.
CORE_PATH = "src/repro/core/kernel.py"

#: rule id -> number of findings its bad fixture must produce.
EXPECTED_BAD_FINDINGS = {
    "DC001": 4,
    "DC002": 11,
    "DC003": 5,
    "DC004": 1,
    "DC005": 2,
    "DC007": 4,
    "DC008": 2,
    "DC009": 2,
    "DC010": 3,
    "DC011": 3,
}


#: Ids of deleted rules; never reused, never documented as live.
RETIRED_RULES = frozenset({"DC006", "DC012", "DC013", "DC014", "DC015", "DC016"})


def fixture_source(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def _table_rule_ids(doc: str, heading: str) -> list[str]:
    """Rule ids named in the table rows of the section under *heading*."""
    text = (REPO / doc).read_text(encoding="utf-8")
    section = text.split(f"\n{heading}", 1)[1].split("\n## ", 1)[0]
    return [
        rule_id
        for line in section.splitlines()
        if line.startswith("|")
        for rule_id in re.findall(r"\bDC\d{3}\b", line)
    ]


class TestRegistry:
    def test_all_ten_rules_registered(self):
        assert sorted(all_rules()) == [
            "DC001",
            "DC002",
            "DC003",
            "DC004",
            "DC005",
            "DC007",
            "DC008",
            "DC009",
            "DC010",
            "DC011",
        ]

    @pytest.mark.parametrize(
        "doc, heading",
        [
            ("README.md", "## Static analysis"),
            ("DESIGN.md", "## 9. Enforced invariants (static analysis)"),
        ],
        ids=["README", "DESIGN"],
    )
    def test_doc_rule_tables_match_the_registry(self, doc, heading):
        ids = _table_rule_ids(doc, heading)
        assert sorted(ids) == sorted(all_rules())
        assert not RETIRED_RULES & set(ids)

    def test_every_rule_documents_itself(self):
        for rule_id, rule_class in all_rules().items():
            assert rule_class.rule_id == rule_id
            assert rule_class.summary, rule_id
            assert rule_class.rationale, rule_id

    def test_unknown_rule_id_raises(self):
        with pytest.raises(KeyError, match="DC999"):
            get_rule("DC999")
        with pytest.raises(KeyError, match="DC999"):
            resolve_selection(select=["DC999"])
        with pytest.raises(KeyError, match="DC999"):
            resolve_selection(ignore=["DC999"])

    def test_select_then_ignore(self):
        rules = resolve_selection(select=["DC001", "DC002"], ignore=["DC002"])
        assert [rule.rule_id for rule in rules] == ["DC001"]


class TestRuleFixtures:
    @pytest.mark.parametrize("rule_id", sorted(EXPECTED_BAD_FINDINGS))
    def test_bad_fixture_fires(self, rule_id):
        source = fixture_source(f"{rule_id.lower()}_bad.py")
        findings = lint_source(source, path=CORE_PATH)
        fired = [f for f in findings if f.rule_id == rule_id]
        assert len(fired) == EXPECTED_BAD_FINDINGS[rule_id]
        # the bad fixture for rule X must not trip any *other* rule,
        # otherwise the corpus is testing more than it claims to
        assert findings == fired

    @pytest.mark.parametrize("rule_id", sorted(EXPECTED_BAD_FINDINGS))
    def test_good_fixture_is_quiet(self, rule_id):
        source = fixture_source(f"{rule_id.lower()}_good.py")
        assert lint_source(source, path=CORE_PATH) == []

    def test_dc002_flags_unseeded_generator_factories(self):
        # Every default_rng / random.Random line in the bad fixture is a
        # seedless call or default_factory, the dead helper's included.
        source = fixture_source("dc002_bad.py")
        factory_lines = {
            number
            for number, text in enumerate(source.splitlines(), start=1)
            if "default_rng" in text or "random.Random" in text
        }
        flagged = {f.line for f in lint_source(source, path=CORE_PATH)}
        assert len(factory_lines) == 7
        assert factory_lines <= flagged

    def test_dc002_passes_seeded_generator_factories(self):
        for call in (
            "np.random.default_rng(7)",
            "np.random.default_rng(seed=7)",
            "np.random.default_rng(seed)",
            "random.Random(seed)",
            "field(default_factory=lambda: np.random.default_rng(seed))",
        ):
            source = (
                "import random\nfrom dataclasses import field\n\n"
                f"import numpy as np\n\nseed = 7\nvalue = {call}\n"
            )
            assert lint_source(source, path=CORE_PATH) == [], call
        unseeded = "import numpy as np\n\nvalue = np.random.default_rng(seed=None)\n"
        assert [f.rule_id for f in lint_source(unseeded, path=CORE_PATH)] == ["DC002"]

    def test_findings_carry_location_and_message(self):
        findings = lint_source(fixture_source("dc004_bad.py"), path=CORE_PATH)
        (finding,) = findings
        assert finding.path == CORE_PATH
        assert finding.line == 5
        assert finding.rule_id == "DC004"
        assert "print" in finding.message
        assert finding.render().startswith(f"{CORE_PATH}:5:")


class TestRuleScoping:
    def test_dc001_exempts_the_clocks_module(self):
        source = fixture_source("dc001_bad.py")
        assert lint_source(source, path="src/repro/reliability/clocks.py") == []

    def test_dc004_exempts_cli_and_tests(self):
        source = fixture_source("dc004_bad.py")
        assert lint_source(source, path="src/repro/cli.py") == []
        assert lint_source(source, path="tests/test_example.py") == []
        assert lint_source(source, path="scripts/tool.py") == []

    def test_dc005_only_checks_core(self):
        source = fixture_source("dc005_bad.py")
        assert lint_source(source, path="src/repro/collect/fetch.py") == []
        assert len(lint_source(source, path=CORE_PATH)) == 2

    def test_dc010_exempts_streaming_and_tests(self):
        source = fixture_source("dc010_bad.py")
        assert lint_source(source, path="src/repro/core/streaming.py") == []
        assert lint_source(source, path="tests/test_example.py") == []
        assert len(lint_source(source, path=CORE_PATH)) == 3

    def test_dc011_exempts_obs_and_tests_but_not_cli(self):
        source = fixture_source("dc011_bad.py")
        assert lint_source(source, path="src/repro/obs/metrics.py") == []
        assert lint_source(source, path="src/repro/obs/profiler.py") == []
        assert lint_source(source, path="tests/test_example.py") == []
        # the CLI is library code for timing purposes: its throughput
        # prints consume Stopwatch values like any other caller
        assert len(lint_source(source, path="src/repro/cli.py")) == 3
        assert len(lint_source(source, path=CORE_PATH)) == 3


class TestSuppressions:
    BAD_LINE = "import time\nstarted = time.time(){comment}\n"

    def test_specific_rule_suppressed(self):
        source = self.BAD_LINE.format(comment="  # darkcrowd: disable=DC001")
        assert lint_source(source, path=CORE_PATH) == []

    def test_all_suppressed(self):
        source = self.BAD_LINE.format(comment="  # darkcrowd: disable=all")
        assert lint_source(source, path=CORE_PATH) == []

    def test_comma_separated_list(self):
        source = self.BAD_LINE.format(comment="  # darkcrowd: disable=DC007, DC001")
        assert lint_source(source, path=CORE_PATH) == []

    def test_other_rule_does_not_suppress(self):
        source = self.BAD_LINE.format(comment="  # darkcrowd: disable=DC002")
        findings = lint_source(source, path=CORE_PATH)
        assert [f.rule_id for f in findings] == ["DC001"]

    def test_suppression_is_per_line(self):
        source = (
            "import time\n"
            "a = time.time()  # darkcrowd: disable=DC001\n"
            "b = time.time()\n"
        )
        findings = lint_source(source, path=CORE_PATH)
        assert [(f.rule_id, f.line) for f in findings] == [("DC001", 3)]


class TestSelection:
    def test_select_runs_only_listed_rules(self):
        source = fixture_source("dc001_bad.py")
        rules = resolve_selection(select=["DC002"])
        assert lint_source(source, path=CORE_PATH, rules=rules) == []

    def test_ignore_drops_a_rule(self):
        source = fixture_source("dc001_bad.py")
        rules = resolve_selection(ignore=["DC001"])
        assert lint_source(source, path=CORE_PATH, rules=rules) == []


class TestParseErrors:
    def test_syntax_error_becomes_dc000(self):
        findings = lint_source("def broken(:\n", path="src/repro/core/x.py")
        (finding,) = findings
        assert finding.rule_id == PARSE_ERROR_ID
        assert "cannot parse" in finding.message


class TestReporters:
    def test_text_tally_all_clean(self):
        assert render_text([]) == "all clean"

    def test_text_tally_counts(self):
        findings = lint_source(fixture_source("dc005_bad.py"), path=CORE_PATH)
        report = render_text(findings)
        assert report.endswith("2 findings")
        one = lint_source(fixture_source("dc004_bad.py"), path=CORE_PATH)
        assert render_text(one).endswith("1 finding")

    def test_json_schema(self):
        findings = lint_source(fixture_source("dc007_bad.py"), path=CORE_PATH)
        payload = json.loads(render_json(findings))
        assert payload["kind"] == REPORT_KIND
        assert payload["version"] == REPORT_VERSION
        assert payload["n_findings"] == len(findings) == 4
        for entry in payload["findings"]:
            assert set(entry) == {"path", "line", "col", "rule", "message"}
            assert entry["rule"] == "DC007"
        assert sorted(payload["rules"]) == sorted(all_rules())
        for description in payload["rules"].values():
            assert set(description) == {"summary", "rationale"}

    def test_json_is_stable_across_renders(self):
        findings = lint_source(fixture_source("dc008_bad.py"), path=CORE_PATH)
        assert render_json(findings) == render_json(findings)


class TestFileDiscovery:
    def test_fixtures_dir_is_never_descended_into(self):
        files = list(iter_python_files([REPO / "tests"]))
        assert files, "discovery found no test files at all"
        assert not [p for p in files if "fixtures" in p.parts]

    def test_explicit_file_bypasses_dir_exclusion(self):
        target = FIXTURES / "dc007_bad.py"
        files = list(iter_python_files([target]))
        assert files == [target]

    def test_deduplicates_overlapping_inputs(self):
        target = FIXTURES / "dc007_bad.py"
        files = list(iter_python_files([target, target]))
        assert files == [target]

    def test_default_excludes_cover_caches(self):
        assert {"__pycache__", ".mypy_cache", "fixtures"} <= set(DEFAULT_EXCLUDED_DIRS)

    # Exclusion is root-relative, so it holds for every path spelling.

    def test_relative_invocation_excludes_fixtures(self, monkeypatch):
        monkeypatch.chdir(REPO)
        files = list(iter_python_files([Path("tests")]))
        assert files and not [
            p for p in files if "fixtures" in p.resolve().parts
        ]

    def test_dotted_invocation_excludes_fixtures(self, monkeypatch):
        monkeypatch.chdir(REPO)
        files = list(iter_python_files([Path("tests") / ".." / "tests"]))
        assert files and not [
            p for p in files if "fixtures" in p.resolve().parts
        ]

    def test_fixture_dir_named_directly_is_still_excluded(self):
        # Naming the corpus *directory* does not sneak it in; only
        # explicit files bypass.
        assert list(iter_python_files([REPO / "tests" / "fixtures"])) == []

    def test_absolute_invocation_excludes_fixtures(self, tmp_path):
        # The base is the detected root, so a project that itself sits
        # under an excluded name is still linted, minus its own fixtures.
        root = tmp_path / "fixtures" / "proj"
        (root / "tests" / "fixtures").mkdir(parents=True)
        (root / "pyproject.toml").write_text("", encoding="utf-8")
        kept = root / "tests" / "test_case.py"
        kept.write_text("x = 1\n", encoding="utf-8")
        (root / "tests" / "fixtures" / "case_bad.py").write_text(
            "x = 1\n", encoding="utf-8"
        )
        assert list(iter_python_files([(root / "tests").resolve()])) == [kept]

    def test_explicit_file_still_bypasses(self, monkeypatch):
        monkeypatch.chdir(REPO)
        target = Path("tests") / "fixtures" / "lintkit" / "dc007_bad.py"
        assert list(iter_python_files([target])) == [target]

    def test_detect_project_root_stops_at_marker(self, tmp_path):
        root = tmp_path / "proj"
        module = root / "src" / "repro" / "pipeline.py"
        module.parent.mkdir(parents=True)
        module.write_text("x = 1\n", encoding="utf-8")
        (root / "pyproject.toml").write_text("", encoding="utf-8")
        assert detect_project_root(module) == root
        assert detect_project_root(REPO / "src") == REPO


class TestCliLint:
    def test_lint_clean_paths_exits_zero(self, capsys):
        assert main(["lint", str(REPO / "src" / "repro" / "lintkit")]) == 0
        assert "all clean" in capsys.readouterr().out

    def test_lint_bad_fixture_exits_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", str(FIXTURES / "dc007_bad.py")])
        assert excinfo.value.code == 1
        assert "DC007" in capsys.readouterr().out

    def test_lint_json_format(self, capsys):
        with pytest.raises(SystemExit):
            main(["lint", "--format", "json", str(FIXTURES / "dc007_bad.py")])
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == REPORT_KIND
        assert payload["n_findings"] == 4
        assert "meta" not in payload

    def test_lint_unknown_rule_id_fails_loudly(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--select", "DC999", str(FIXTURES)])
        assert "DC999" in str(excinfo.value.code)

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in all_rules():
            assert rule_id in out


class TestSelfLint:
    def test_shipped_tree_is_clean(self):
        findings = lint_paths([REPO / "src", REPO / "tests", REPO / "benchmarks"])
        assert findings == [], render_text(findings)
