"""Data model of the lint engine: findings and per-file context.

A :class:`Finding` is one rule violation at one source location; the
:class:`FileContext` is everything a rule may ask about the file being
checked -- the parsed tree, a parent map, the source lines, and an
import-alias table that resolves local names back to the fully dotted
origin (``np`` -> ``numpy``, ``from datetime import datetime`` makes
``datetime`` resolve to ``datetime.datetime``).  Rules stay purely
lexical: no imports are executed, no module objects are inspected.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import PurePosixPath

__all__ = ["Finding", "FileContext", "SUPPRESS_PATTERN"]

#: ``# darkcrowd: disable=DC001`` or ``disable=DC001,DC007`` or
#: ``disable=all`` -- suppresses matching findings on the same line.
SUPPRESS_PATTERN = re.compile(
    r"#\s*darkcrowd:\s*disable=([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


@dataclass
class FileContext:
    """Everything the rules can ask about the file under analysis."""

    path: str
    tree: ast.Module
    lines: list[str]
    #: local name -> fully dotted origin ("np" -> "numpy").
    aliases: dict[str, str] = field(default_factory=dict)
    #: child AST node -> parent AST node, for ancestry rules.
    parents: dict[ast.AST, ast.AST] = field(default_factory=dict)
    #: physical line -> rule ids suppressed there ("all" disables every rule).
    suppressions: dict[int, set[str]] = field(default_factory=dict)
    findings: list[Finding] = field(default_factory=list)

    # -- path predicates (rules scope themselves with these) ---------------

    @property
    def parts(self) -> tuple[str, ...]:
        return PurePosixPath(self.path.replace("\\", "/")).parts

    @property
    def name(self) -> str:
        return self.parts[-1] if self.parts else self.path

    @property
    def is_test_code(self) -> bool:
        """Test modules and fixtures: under ``tests/`` or ``test_*.py``."""
        return (
            "tests" in self.parts
            or self.name.startswith("test_")
            or self.name == "conftest.py"
        )

    @property
    def is_library_code(self) -> bool:
        """Shipped package code (anything under the ``repro`` package)."""
        return "repro" in self.parts and not self.is_test_code

    def path_endswith(self, *suffixes: str) -> bool:
        """True when the posixised path ends with any of *suffixes*."""
        posix = "/".join(self.parts)
        return any(posix.endswith(suffix) for suffix in suffixes)

    # -- name resolution ---------------------------------------------------

    def resolve(self, node: ast.AST) -> str | None:
        """Fully dotted origin of a ``Name``/``Attribute`` chain, or None.

        ``np.random.rand`` resolves to ``numpy.random.rand`` when the file
        did ``import numpy as np``; a chain rooted in anything but an
        imported name (a local variable, a call result) resolves to None.
        """
        chain: list[str] = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        origin = self.aliases.get(node.id)
        if origin is None:
            return None
        chain.append(origin)
        return ".".join(reversed(chain))

    # -- reporting ---------------------------------------------------------

    def report(self, rule_id: str, node: ast.AST, message: str) -> None:
        """Record a finding unless the line carries a suppression."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        suppressed = self.suppressions.get(line, set())
        if "all" in suppressed or rule_id in suppressed:
            return
        self.findings.append(
            Finding(
                path=self.path,
                line=line,
                col=col,
                rule_id=rule_id,
                message=message,
            )
        )
