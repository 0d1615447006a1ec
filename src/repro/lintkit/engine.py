"""The analysis driver: parse once, walk once, dispatch to every rule.

Each file is parsed with :mod:`ast`, the per-file context (import-alias
table, parent map, suppression lines) is built, and a single depth-first
walk dispatches each node to the rules that declared a
``visit_<NodeType>`` hook.  Every rule sees one file at a time;
:func:`lint_paths` is a loop of :func:`lint_file` over
:func:`iter_python_files`.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.lintkit.model import SUPPRESS_PATTERN, FileContext, Finding
from repro.lintkit.registry import Rule, resolve_selection

__all__ = [
    "DEFAULT_EXCLUDED_DIRS",
    "PARSE_ERROR_ID",
    "detect_project_root",
    "iter_python_files",
    "lint_source",
    "lint_file",
    "lint_paths",
]

#: Directory names never descended into.  ``fixtures`` keeps the known-bad
#: lint corpus under ``tests/fixtures/`` out of the self-lint gate; the
#: exclusion is computed against *project-root-relative* components, so it
#: holds however the tree is named on the command line (absolute,
#: relative, or dotted paths).  Naming a file explicitly still bypasses it.
DEFAULT_EXCLUDED_DIRS = frozenset(
    {
        "__pycache__",
        ".git",
        ".mypy_cache",
        ".ruff_cache",
        ".venv",
        "venv",
        "build",
        "dist",
        "fixtures",
    }
)

#: Pseudo-rule id attached to files the parser rejects outright.
PARSE_ERROR_ID = "DC000"

#: Markers that terminate the project-root walk-up.
_ROOT_MARKERS = ("pyproject.toml", ".git")


def _collect_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> fully dotted origin, from every import statement.

    Late or conditional imports are included too: resolution is lexical,
    and a file that rebinds an imported name to something else is rare
    enough not to engineer for (the rules only use resolution to *match*
    known-dangerous origins, so a stale alias can at worst over-report,
    and a suppression comment documents the exception).
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                local = name.asname or name.name.split(".")[0]
                origin = name.name if name.asname else name.name.split(".")[0]
                aliases[local] = origin
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue  # relative imports resolve within the package
            for name in node.names:
                if name.name == "*":
                    continue
                local = name.asname or name.name
                aliases[local] = f"{node.module}.{name.name}"
    # ``from datetime import datetime`` must resolve chained attributes
    # (``datetime.now``) through the *class*, which the dict already does:
    # the local "datetime" maps to "datetime.datetime".
    return aliases


def _collect_parents(tree: ast.Module) -> dict[ast.AST, ast.AST]:
    parents: dict[ast.AST, ast.AST] = {}
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
    return parents


def _collect_suppressions(lines: Sequence[str]) -> dict[int, set[str]]:
    suppressions: dict[int, set[str]] = {}
    for lineno, line in enumerate(lines, start=1):
        match = SUPPRESS_PATTERN.search(line)
        if match is None:
            continue
        ids = {part.strip() for part in match.group(1).split(",") if part.strip()}
        if ids:
            suppressions[lineno] = ids
    return suppressions


def _build_context(source: str, path: str) -> FileContext:
    """Parse *source* and assemble the per-file context (may raise
    ``SyntaxError``)."""
    tree = ast.parse(source, filename=path)
    lines = source.splitlines()
    return FileContext(
        path=path,
        tree=tree,
        lines=lines,
        aliases=_collect_aliases(tree),
        parents=_collect_parents(tree),
        suppressions=_collect_suppressions(lines),
    )


def lint_source(
    source: str,
    path: str = "<string>",
    rules: "Sequence[Rule] | None" = None,
) -> list[Finding]:
    """Lint Python *source* as if it lived at *path*.

    The *path* drives rule scoping (e.g. DC005 only checks ``core/``), so
    tests can exercise scoped rules on fixture text by spoofing the path.
    """
    active = list(rules) if rules is not None else resolve_selection()
    try:
        ctx = _build_context(source, path)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                rule_id=PARSE_ERROR_ID,
                message=f"cannot parse file: {exc.msg}",
            )
        ]
    scoped = [rule for rule in active if rule.applies_to(ctx)]
    if scoped:
        for node in ast.walk(ctx.tree):
            for rule in scoped:
                visitor = rule.visitor_for(node)
                if visitor is not None:
                    visitor(node, ctx)
    return sorted(ctx.findings)


def lint_file(path: "str | Path", rules: "Sequence[Rule] | None" = None) -> list[Finding]:
    """Lint one file on disk."""
    file_path = Path(path)
    try:
        source = file_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return [
            Finding(
                path=str(file_path),
                line=1,
                col=0,
                rule_id=PARSE_ERROR_ID,
                message=f"cannot read file: {exc}",
            )
        ]
    return lint_source(source, path=str(file_path), rules=rules)


def detect_project_root(start: "str | Path") -> "Path | None":
    """Nearest ancestor of *start* carrying a project marker, or None."""
    current = Path(start).resolve()
    if current.is_file():
        current = current.parent
    for candidate in (current, *current.parents):
        if any((candidate / marker).exists() for marker in _ROOT_MARKERS):
            return candidate
    return None


def _exclusion_base(entry_path: Path) -> Path:
    """The directory exclusion components are computed against.

    The project root when the entry lives inside one (making
    ``tests/fixtures`` excluded no matter how the tree was named), the
    entry itself otherwise.
    """
    resolved = entry_path.resolve()
    root = detect_project_root(resolved)
    if root is not None and resolved.is_relative_to(root):
        return root
    return resolved


def iter_python_files(
    paths: Iterable["str | Path"],
    excluded_dirs: frozenset[str] = DEFAULT_EXCLUDED_DIRS,
) -> Iterator[Path]:
    """Expand files and directories into a sorted, deduplicated file list.

    Exclusion looks at each candidate's *root-relative* directory parts,
    so the fixture corpus stays out of the lint scope for absolute,
    relative, and dot-riddled invocations alike.  Explicitly named files
    bypass exclusion entirely (deliberate: ``darkcrowd lint
    tests/fixtures/dc001_bad.py`` is how the corpus itself is inspected).
    """
    seen: set[Path] = set()
    for entry in paths:
        entry_path = Path(entry)
        if entry_path.is_dir():
            base = _exclusion_base(entry_path)
            candidates = sorted(
                candidate
                for candidate in entry_path.rglob("*.py")
                if not _is_excluded(candidate, base, excluded_dirs)
            )
        else:
            candidates = [entry_path]
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def _is_excluded(
    candidate: Path, base: Path, excluded_dirs: frozenset[str]
) -> bool:
    resolved = candidate.resolve()
    if resolved.is_relative_to(base):
        parts = resolved.relative_to(base).parts
    else:
        parts = resolved.parts
    return any(
        part in excluded_dirs or part.startswith(".") for part in parts[:-1]
    )


def lint_paths(
    paths: Iterable["str | Path"],
    select: "list[str] | None" = None,
    ignore: "list[str] | None" = None,
) -> list[Finding]:
    """Lint files and directory trees; the main library entry point."""
    rules = resolve_selection(select=select, ignore=ignore)
    findings: list[Finding] = []
    for file_path in iter_python_files(paths):
        findings.extend(lint_file(file_path, rules=rules))
    return sorted(findings)
