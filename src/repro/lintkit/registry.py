"""Rule registry: every rule class registers itself under its id.

Rules subclass :class:`Rule` and call :func:`register`; the CLI and the
engine look them up here.  Every rule sees one parsed file at a time.
``--select`` / ``--ignore`` resolve through :func:`resolve_selection`,
which rejects unknown ids loudly rather than silently checking nothing.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Callable, ClassVar, TypeVar

if TYPE_CHECKING:
    from repro.lintkit.model import FileContext

__all__ = [
    "Rule",
    "register",
    "all_rules",
    "get_rule",
    "resolve_selection",
]


class Rule:
    """Base class: one invariant, one id, a handful of ``visit_*`` hooks.

    The engine walks each file's AST exactly once and dispatches node
    ``N`` to every active rule that defines ``visit_<type(N).__name__>``.
    Rules report through :meth:`FileContext.report`, which applies the
    per-line suppressions.
    """

    rule_id: ClassVar[str] = ""
    #: One-line summary for ``--list-rules`` and the README table.
    summary: ClassVar[str] = ""
    #: Why the invariant matters for reproducibility (docs + JSON report).
    rationale: ClassVar[str] = ""

    def applies_to(self, ctx: "FileContext") -> bool:
        """Whether this rule runs at all on *ctx* (path-based scoping)."""
        return True

    def visitor_for(self, node: ast.AST) -> Callable[[ast.AST, "FileContext"], None] | None:
        return getattr(self, f"visit_{type(node).__name__}", None)


_REGISTRY: dict[str, type[Rule]] = {}

R = TypeVar("R", bound=type[Rule])


def _ensure_builtin_rules() -> None:
    """Import the rule module so its ``@register`` decorators have run."""
    import repro.lintkit.rules  # noqa: F401  (import for side effect)


def register(rule_class: R) -> R:
    """Class decorator: add *rule_class* to the registry under its id."""
    rule_id = rule_class.rule_id
    if not rule_id:
        raise ValueError(f"{rule_class.__name__} has no rule_id")
    existing = _REGISTRY.get(rule_id)
    if existing is not None and existing is not rule_class:
        raise ValueError(
            f"rule id {rule_id} already registered by {existing.__name__}"
        )
    _REGISTRY[rule_id] = rule_class
    return rule_class


def all_rules() -> dict[str, type[Rule]]:
    """Registered rules keyed by id, in id order."""
    _ensure_builtin_rules()
    return dict(sorted(_REGISTRY.items()))


def get_rule(rule_id: str) -> type[Rule]:
    _ensure_builtin_rules()
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown rule id {rule_id!r} (known: {known})") from None


def resolve_selection(
    select: "list[str] | None" = None,
    ignore: "list[str] | None" = None,
) -> list[Rule]:
    """Instantiate the active rule set for a run.

    *select* keeps only the listed ids (default: all); *ignore* then
    drops ids from that set.  Unknown ids raise ``KeyError``.
    """
    _ensure_builtin_rules()
    chosen = list(select) if select else sorted(_REGISTRY)
    for rule_id in list(chosen) + list(ignore or []):
        get_rule(rule_id)  # raise on unknown ids, even in ignore
    dropped = set(ignore or [])
    return [_REGISTRY[rule_id]() for rule_id in chosen if rule_id not in dropped]
