"""The project rules: every convention the pipeline's correctness leans on.

Each rule encodes one invariant that, when silently broken, destroys a
property the paper's methodology needs -- bit-reproducible Eq. 1
profiles, deterministic retries and checkpoints, resumable campaigns,
or the streaming engine's incremental win.  Every rule looks at one
file at a time.  The rule ids are stable (``DC001`` .. ``DC005`` and
``DC007`` .. ``DC011``; ``DC006`` and ``DC012`` .. ``DC016`` are retired
and never reused) and suppressible per line with
``# darkcrowd: disable=DCnnn``.
"""

from __future__ import annotations

import ast
import re
from typing import ClassVar

from repro.lintkit.model import FileContext
from repro.lintkit.registry import Rule, register

__all__ = [
    "WallClockRule",
    "GlobalRngRule",
    "ObsNameRule",
    "PrintInLibraryRule",
    "FloatEqualityRule",
    "MutableDefaultRule",
    "SwallowedExceptionRule",
    "ColdSnapshotRule",
    "BatchObserveRule",
    "NakedTimingRule",
]

#: Wall-clock reads that make a run irreproducible when taken outside the
#: injectable clock seam.
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Constructors of seedable RNG state: the sanctioned path when given a
#: seed, an OS-entropy generator when called bare, with a literal ``None``
#: seed, or as a dataclass ``default_factory``.
_RNG_FACTORIES = frozenset({"numpy.random.default_rng", "random.Random"})

_METRIC_FACTORIES = frozenset(
    {
        "repro.obs.metrics.counter",
        "repro.obs.metrics.gauge",
        "repro.obs.metrics.histogram",
    }
)
_SPAN_FACTORIES = frozenset({"repro.obs.tracing.trace_span"})

#: ``repro_<subsystem>_<name>_<unit>``: at least three lowercase segments
#: after the ``repro`` prefix, the last being a recognised unit.
_METRIC_NAME = re.compile(r"^repro(_[a-z][a-z0-9]*){3,}$")
_METRIC_UNITS = frozenset({"total", "seconds", "bytes", "users", "count", "ratio"})
_SPAN_NAME = re.compile(r"^[a-z][a-z0-9_]*$")


def _first_positional_string(node: ast.Call) -> "str | None":
    if not node.args:
        return None
    first = node.args[0]
    if isinstance(first, ast.Constant) and isinstance(first.value, str):
        return first.value
    return None


@register
class WallClockRule(Rule):
    """DC001: naked wall-clock reads outside the injectable clock seam."""

    rule_id: ClassVar[str] = "DC001"
    summary: ClassVar[str] = (
        "wall-clock call (time.time / datetime.now / datetime.utcnow) "
        "outside reliability/clocks.py"
    )
    rationale: ClassVar[str] = (
        "Retry backoff, checkpoint timestamps and manifests must read time "
        "through repro.reliability.clocks so tests inject a ManualClock and "
        "two runs of the same campaign are bit-identical."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return not ctx.path_endswith("reliability/clocks.py")

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        resolved = ctx.resolve(node.func)
        if resolved in _WALL_CLOCK_CALLS:
            ctx.report(
                self.rule_id,
                node,
                f"naked wall-clock read {resolved}(); route it through the "
                "injectable seam in repro.reliability.clocks",
            )


def _unseeded(node: ast.Call) -> bool:
    """No seed at all, or a literal ``None`` one (positional or ``seed=``)."""
    if not node.args and not node.keywords:
        return True
    if node.args:
        seed: "ast.expr | None" = node.args[0]
    else:
        seed = next((kw.value for kw in node.keywords if kw.arg == "seed"), None)
    return isinstance(seed, ast.Constant) and seed.value is None


@register
class GlobalRngRule(Rule):
    """DC002: unseeded RNG -- global-state draws or seedless generators."""

    rule_id: ClassVar[str] = "DC002"
    summary: ClassVar[str] = (
        "unseeded RNG (np.random.* module functions, bare random.*, "
        "default_rng()/random.Random() without a seed)"
    )
    rationale: ClassVar[str] = (
        "Synthetic crowds, fault schedules and EM reseeds must draw from an "
        "explicitly seeded Generator / random.Random instance, never the "
        "shared module-level state another import can perturb, and never a "
        "generator seeded from OS entropy: either one breaks replay from a "
        "manifest seed."
    )

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        resolved = ctx.resolve(node.func)
        if resolved in _RNG_FACTORIES:
            if _unseeded(node):
                ctx.report(
                    self.rule_id,
                    node,
                    f"{resolved}() with no seed (or a None one) draws OS entropy; "
                    "pass an explicit seed so the run replays",
                )
            return
        for keyword in node.keywords:
            if keyword.arg != "default_factory":
                continue
            factory = ctx.resolve(keyword.value)
            if factory in _RNG_FACTORIES:
                ctx.report(
                    self.rule_id,
                    node,
                    f"default_factory={factory} builds an unseeded generator "
                    "per instance; pass an explicitly seeded one",
                )
        if resolved is None:
            return
        for prefix, label in (("numpy.random.", "numpy"), ("random.", "stdlib")):
            if not resolved.startswith(prefix):
                continue
            tail = resolved[len(prefix):]
            # Constructors of seedable state (Generator, RandomState,
            # PCG64, ...) are the sanctioned path; the hazard is
            # lowercase module-level draw functions.
            if "." in tail or not tail or not tail[0].islower():
                return
            ctx.report(
                self.rule_id,
                node,
                f"{resolved}() draws from the {label} module-global RNG; "
                "use a seeded np.random.default_rng(seed) / random.Random(seed) "
                "instance instead",
            )
            return


@register
class ObsNameRule(Rule):
    """DC003: metric/span name literals violating the naming convention."""

    rule_id: ClassVar[str] = "DC003"
    summary: ClassVar[str] = (
        "metric name not repro_<subsystem>_<name>_<unit>, or span name not "
        "lower_snake_case"
    )
    rationale: ClassVar[str] = (
        "Dashboards and the perf-gate scripts key on stable metric names; a "
        "name outside the convention silently falls off every query."
    )

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        resolved = ctx.resolve(node.func)
        if resolved in _METRIC_FACTORIES:
            name = _first_positional_string(node)
            if name is None:
                return
            if not _METRIC_NAME.match(name) or name.rsplit("_", 1)[-1] not in _METRIC_UNITS:
                units = "/".join(sorted(_METRIC_UNITS))
                ctx.report(
                    self.rule_id,
                    node,
                    f"metric name {name!r} must match "
                    f"repro_<subsystem>_<name>_<unit> with unit in {units}",
                )
        elif resolved in _SPAN_FACTORIES:
            name = _first_positional_string(node)
            if name is not None and not _SPAN_NAME.match(name):
                ctx.report(
                    self.rule_id,
                    node,
                    f"span name {name!r} must be lower_snake_case",
                )


@register
class PrintInLibraryRule(Rule):
    """DC004: ``print()`` in library code outside the CLI."""

    rule_id: ClassVar[str] = "DC004"
    summary: ClassVar[str] = "print() in library code outside cli.py"
    rationale: ClassVar[str] = (
        "Library output goes through repro.obs logging (rate-limited, "
        "machine-parseable, silenceable); stray prints corrupt piped CLI "
        "output and cannot be turned off by embedders."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.is_library_code and ctx.name != "cli.py"

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            ctx.report(
                self.rule_id,
                node,
                "print() in library code; use repro.obs.logs or return the "
                "text to the caller",
            )


@register
class FloatEqualityRule(Rule):
    """DC005: exact float equality in the numeric core."""

    rule_id: ClassVar[str] = "DC005"
    summary: ClassVar[str] = "float == / != literal comparison in core/ numerics"
    rationale: ClassVar[str] = (
        "Profile masses and EMD scores arrive through summation whose "
        "rounding differs across BLAS builds; exact equality makes placement "
        "decisions depend on the machine instead of the data.  Compare "
        "against tolerances, or use an explicit None/flag sentinel."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return "core" in ctx.parts

    def visit_Compare(self, node: ast.Compare, ctx: FileContext) -> None:
        operands = [node.left, *node.comparators]
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            pair = (operands[index], operands[index + 1])
            if any(
                isinstance(operand, ast.Constant)
                and type(operand.value) is float
                for operand in pair
            ):
                ctx.report(
                    self.rule_id,
                    node,
                    "exact float equality; use math.isclose / a tolerance, "
                    "or a non-float sentinel",
                )
                return


@register
class MutableDefaultRule(Rule):
    """DC007: mutable default arguments."""

    rule_id: ClassVar[str] = "DC007"
    summary: ClassVar[str] = "mutable default argument ([], {}, set(), list()...)"
    rationale: ClassVar[str] = (
        "A mutable default is shared across every call; state bleeding "
        "between invocations is exactly the cross-run contamination the "
        "pipeline's determinism tests cannot detect."
    )

    def _check_arguments(self, node: ast.AST, args: ast.arguments, ctx: FileContext) -> None:
        defaults = list(args.defaults) + [d for d in args.kw_defaults if d is not None]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set")
            )
            if mutable:
                ctx.report(
                    self.rule_id,
                    default,
                    "mutable default argument is shared across calls; default "
                    "to None (or a tuple/frozenset) and build inside the body",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef, ctx: FileContext) -> None:
        self._check_arguments(node, node.args, ctx)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef, ctx: FileContext) -> None:
        self._check_arguments(node, node.args, ctx)

    def visit_Lambda(self, node: ast.Lambda, ctx: FileContext) -> None:
        self._check_arguments(node, node.args, ctx)


@register
class SwallowedExceptionRule(Rule):
    """DC008: broad exception handlers that silently swallow."""

    rule_id: ClassVar[str] = "DC008"
    summary: ClassVar[str] = "except Exception / bare except with a pass-only body"
    rationale: ClassVar[str] = (
        "A swallowed broad exception turns a corrupt checkpoint or a dead "
        "worker into silently wrong placements.  Catch the narrow error, or "
        "at minimum log before continuing."
    )

    def visit_ExceptHandler(self, node: ast.ExceptHandler, ctx: FileContext) -> None:
        handler_type = node.type
        broad = handler_type is None or (
            isinstance(handler_type, ast.Name)
            and handler_type.id in ("Exception", "BaseException")
        )
        if not broad:
            return
        if all(self._is_noop(stmt) for stmt in node.body):
            ctx.report(
                self.rule_id,
                node,
                "broad exception handler silently swallows; catch the "
                "specific error or log it via repro.obs.logs",
            )

    @staticmethod
    def _is_noop(stmt: ast.stmt) -> bool:
        if isinstance(stmt, ast.Pass):
            return True
        return (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        )


@register
class ColdSnapshotRule(Rule):
    """DC009: cold ``snapshot_reference()`` calls in library code."""

    rule_id: ClassVar[str] = "DC009"
    summary: ClassVar[str] = (
        "snapshot_reference() (the O(users) cold oracle) called in library code"
    )
    rationale: ClassVar[str] = (
        "snapshot_reference() exists to *verify* the incremental engine -- "
        "it re-places every user from scratch.  A library call site quietly "
        "turns a snapshot into a full cold re-place, erasing the dirty-set "
        "win the streaming engine is built around; production paths must "
        "use snapshot(), and oracle comparisons belong in tests and "
        "benchmarks."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        # streaming.py defines the oracle; everywhere else in the package
        # a call is a cold path hiding in a hot one.
        return ctx.is_library_code and not ctx.path_endswith("core/streaming.py")

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            name = func.attr
        elif isinstance(func, ast.Name):
            name = func.id
        else:
            return
        if name == "snapshot_reference":
            ctx.report(
                self.rule_id,
                node,
                "cold-path snapshot_reference(); use the incremental "
                "snapshot(), and keep oracle comparisons in tests/benchmarks",
            )


@register
class BatchObserveRule(Rule):
    """DC010: per-event ``observe()`` loops in library code."""

    rule_id: ClassVar[str] = "DC010"
    summary: ClassVar[str] = (
        "per-event engine.observe(user, ts) inside a loop; use "
        "observe_batch()/ingest_store()"
    )
    rationale: ClassVar[str] = (
        "observe() pays python-level dict/set/float work per post; the "
        "vectorised bulk path (observe_batch / ingest_store) is "
        "bit-identical for the same event order and an order of magnitude "
        "faster.  A per-event loop hiding in a library path quietly caps "
        "ingest at a fraction of the engine's throughput; the serial seam "
        "itself lives in core/streaming.py, and per-event feeding belongs "
        "in tests and benchmarks that score the bulk path against it."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        # streaming.py owns the serial fallback the bulk path is proven
        # against; everywhere else in the package a looped observe() is a
        # throughput cliff.
        return ctx.is_library_code and not ctx.path_endswith("core/streaming.py")

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        func = node.func
        # Two positional args (user_id, timestamp) distinguishes the
        # engine's observe() from histogram .observe(value) metrics.
        if not isinstance(func, ast.Attribute) or func.attr != "observe":
            return
        if len(node.args) != 2 or node.keywords:
            return
        if self._in_loop(node, ctx):
            ctx.report(
                self.rule_id,
                node,
                "per-event observe() in a loop; collect the events and make "
                "one observe_batch() / ingest_store() call (bit-identical, "
                "vectorised)",
            )

    @staticmethod
    def _in_loop(node: ast.AST, ctx: FileContext) -> bool:
        child: ast.AST = node
        parent = ctx.parents.get(child)
        while parent is not None:
            if isinstance(parent, (ast.For, ast.AsyncFor, ast.While)):
                return True
            if isinstance(
                parent,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
            ):
                # A nested function/lambda body does not run per loop
                # iteration just because it is *defined* inside one.
                return False
            child = parent
            parent = ctx.parents.get(child)
        return False


@register
class NakedTimingRule(Rule):
    """DC011: ad-hoc ``time.perf_counter()`` timing outside ``repro/obs``."""

    rule_id: ClassVar[str] = "DC011"
    summary: ClassVar[str] = (
        "time.perf_counter() timing in library code outside repro/obs"
    )
    rationale: ClassVar[str] = (
        "An ad-hoc perf_counter() delta is invisible to the observability "
        "layer: the duration never reaches a histogram percentile, the "
        "series sampler or the dashboard.  Library code times itself with "
        "repro.obs.metrics.Stopwatch (when the elapsed value is consumed) "
        "or histogram(...).time() (when it is only recorded); the obs "
        "package itself is the one sanctioned home of the raw call."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        # repro/obs implements the timing primitives, so the raw call is
        # its plumbing; everywhere else it is a metrics-layer bypass.
        return ctx.is_library_code and "obs" not in ctx.parts

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        if ctx.resolve(node.func) == "time.perf_counter":
            ctx.report(
                self.rule_id,
                node,
                "naked time.perf_counter(); time with obs metrics.Stopwatch "
                "or histogram(...).time() so the duration reaches the "
                "observability layer",
            )
