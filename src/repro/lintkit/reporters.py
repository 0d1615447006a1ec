"""Finding reporters: render a lint run for humans or for machines.

Both reporters return strings; the CLI owns the actual printing (which
also keeps the lint engine itself clean under its own DC004 rule).
"""

from __future__ import annotations

import json
from typing import Sequence

from repro.lintkit.model import Finding
from repro.lintkit.registry import all_rules

__all__ = ["REPORT_KIND", "REPORT_VERSION", "render_text", "render_json"]

REPORT_KIND = "darkcrowd-lint-report"
#: v2 made a "meta" block optional; none is emitted, so a v2 report
#: carries exactly the v1 fields.
REPORT_VERSION = 2


def render_text(findings: Sequence[Finding]) -> str:
    """One ``path:line:col: DCnnn message`` line per finding, plus a tally."""
    lines = [finding.render() for finding in sorted(findings)]
    count = len(findings)
    lines.append(
        "all clean" if count == 0 else f"{count} finding{'s' if count != 1 else ''}"
    )
    return "\n".join(lines)


def render_json(findings: Sequence[Finding], indent: "int | None" = 2) -> str:
    """Stable machine-readable report (schema asserted by the test suite)."""
    rules = {
        rule_id: {"summary": rule.summary, "rationale": rule.rationale}
        for rule_id, rule in all_rules().items()
    }
    payload = {
        "kind": REPORT_KIND,
        "version": REPORT_VERSION,
        "n_findings": len(findings),
        "findings": [
            {
                "path": finding.path,
                "line": finding.line,
                "col": finding.col,
                "rule": finding.rule_id,
                "message": finding.message,
            }
            for finding in sorted(findings)
        ],
        "rules": rules,
    }
    return json.dumps(payload, indent=indent, sort_keys=True)
