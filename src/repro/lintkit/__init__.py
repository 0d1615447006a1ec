"""Project-aware static analysis for the darkcrowd codebase.

``darkcrowd lint`` runs an AST-based engine over the source tree and
enforces the conventions the pipeline's *reproducibility* leans on:
injectable clocks, seeded RNG, observability naming, and a handful of
classic Python footguns.  Every rule looks at one file at a time; see
:mod:`repro.lintkit.rules` for the catalogue (DC001..DC005,
DC007..DC011) and the README "Static analysis" section for the
rationale table.

Programmatic use::

    from repro.lintkit import lint_paths, render_text

    findings = lint_paths(["src", "tests"])
    report = render_text(findings)

Per-line suppression (documents an intentional exception)::

    started = time.time()  # darkcrowd: disable=DC001
"""

from repro.lintkit.engine import (
    DEFAULT_EXCLUDED_DIRS,
    PARSE_ERROR_ID,
    detect_project_root,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.lintkit.model import FileContext, Finding
from repro.lintkit.registry import (
    Rule,
    all_rules,
    get_rule,
    register,
    resolve_selection,
)
from repro.lintkit.reporters import (
    REPORT_KIND,
    REPORT_VERSION,
    render_json,
    render_text,
)

__all__ = [
    "DEFAULT_EXCLUDED_DIRS",
    "PARSE_ERROR_ID",
    "REPORT_KIND",
    "REPORT_VERSION",
    "FileContext",
    "Finding",
    "Rule",
    "all_rules",
    "detect_project_root",
    "get_rule",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "register",
    "render_json",
    "render_text",
    "resolve_selection",
]
