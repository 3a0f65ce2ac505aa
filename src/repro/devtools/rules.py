"""Domain lint rules for the repro codebase.

Each rule inspects one module's :mod:`ast` tree and yields
:class:`Violation` records.  Rules are registered in :data:`RULES` and
addressed by a short id (``R1`` … ``R10``) or a descriptive name — both
work in ``--select`` and in suppression comments
(``# lint: ignore[R2]`` / ``# lint: ignore[magic-number]``).

The rules encode *domain* conventions a general-purpose linter cannot
know:

=====  ====================  ==============================================
id     name                  convention enforced
=====  ====================  ==============================================
R1     float-equality        no ``==``/``!=`` on time/energy expressions
R2     magic-number          use :mod:`repro.units` constants, not literals
R3     exception-hierarchy   raise :class:`~repro.errors.ReproError` kinds
R4     power-state           transitions only via the enclosure API, and
                             only edges of ``LEGAL_TRANSITIONS``
R5     public-api            public functions are annotated and documented
R6     mutable-default       no mutable default argument values
R7     naked-except          no bare ``except:`` / ``except Exception:``
R8     ad-hoc-time           timeline sampling and fault bookkeeping only
                             through the :mod:`repro.engine` kernel
R10    cross-array-access    no hardcoded foreign-array component names
                             outside :mod:`repro.fleet`; ownership comes
                             from the router, never from a literal
=====  ====================  ==============================================

The storage boundary (mutators only through the :mod:`repro.actions`
executor) is not a line-local rule: it is the whole-program analysis
check D201 ``storage-boundary``
(:mod:`repro.devtools.analysis.determinism`), which sees direct calls
and helper chains alike.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.devtools.analysis.determinism import STORAGE_MUTATORS
from repro.devtools.analysis.symbols import terminal_name
from repro.errors import ValidationError

__all__ = [
    "RULES",
    "LintContext",
    "Rule",
    "Violation",
    "legal_transition_names",
]


@dataclass(frozen=True)
class Violation:
    """One rule violation at a source location."""

    rule_id: str
    rule_name: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """Human-readable one-liner, ``path:line:col: R2[magic-number] …``."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id}[{self.rule_name}] {self.message}"
        )


@dataclass
class LintContext:
    """Per-file context handed to every rule."""

    path: str
    source: str
    tree: ast.Module
    #: Parent links for every node, for rules that need to look upward.
    parents: dict[ast.AST, ast.AST] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent

    @property
    def posix_path(self) -> str:
        """The file path with forward slashes, for suffix matching."""
        return Path(self.path).as_posix()


class Rule:
    """Base class: one registered lint rule."""

    rule_id: str = ""
    name: str = ""
    summary: str = ""

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        """Yield every violation of this rule in ``ctx.tree``."""
        raise NotImplementedError

    def violation(
        self, ctx: LintContext, node: ast.AST, message: str
    ) -> Violation:
        """Build a :class:`Violation` anchored at ``node``."""
        return Violation(
            rule_id=self.rule_id,
            rule_name=self.name,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


#: Registry of all rules, keyed by rule id.
RULES: dict[str, Rule] = {}


def _register(cls: type[Rule]) -> type[Rule]:
    rule = cls()
    if rule.rule_id in RULES:
        raise ValidationError(f"duplicate rule id {rule.rule_id!r}")
    RULES[rule.rule_id] = rule
    return cls


# ---------------------------------------------------------------------------
# R1: float equality on time/energy expressions
# ---------------------------------------------------------------------------

#: Name fragments that mark an expression as time/energy-valued.  These
#: quantities are accumulated floats (integration of watts over virtual
#: seconds), so exact equality on them is almost always a latent bug.
_QUANTITY_FRAGMENTS = (
    "time",
    "seconds",
    "secs",
    "watts",
    "joules",
    "energy",
    "duration",
    "clock",
    "timestamp",
    "interval",
    "latency",
    "deadline",
)


def _is_quantity_expr(node: ast.AST) -> bool:
    name = terminal_name(node).lower()
    return any(fragment in name for fragment in _QUANTITY_FRAGMENTS)


@_register
class FloatEqualityRule(Rule):
    """R1: ``==``/``!=`` between time/energy-valued expressions."""

    rule_id = "R1"
    name = "float-equality"
    summary = (
        "time/energy quantities are accumulated floats; compare with "
        "math.isclose or an explicit tolerance, never == / !="
    )

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        """Flag Eq/NotEq comparisons whose operands look time/energy-valued."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                suspect = next(
                    (x for x in (left, right) if _is_quantity_expr(x)), None
                )
                if suspect is None:
                    continue
                yield self.violation(
                    ctx,
                    node,
                    f"float equality on {terminal_name(suspect)!r} — "
                    "use math.isclose() or an explicit tolerance",
                )


# ---------------------------------------------------------------------------
# R2: magic numbers that shadow repro.units constants
# ---------------------------------------------------------------------------

#: Literal values for which a named constant exists in ``repro.units``.
_UNIT_VALUES: dict[float, str] = {
    1024.0: "units.KB",
    4096.0: "units.BLOCK_SIZE",
    1024.0**2: "units.MB",
    1024.0**3: "units.GB",
    1024.0**4: "units.TB",
    3600.0: "units.HOUR",
    86400.0: "units.DAY",
}

#: Bare names that already denote unit constants — a literal multiplied
#: by one of these is a *count* (``60.0 * units.MB``), not a disguised
#: unit, so it is exempt.
_UNIT_NAMES = {
    "KB",
    "MB",
    "GB",
    "TB",
    "BLOCK_SIZE",
    "PAGE_BYTES",
    "PAGE_BLOCKS",
    "SECOND",
    "MINUTE",
    "HOUR",
    "DAY",
    "WATT",
    "KILOWATT",
}


def _fold_numeric(node: ast.AST) -> float | None:
    """Constant-fold a small numeric expression, or ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        if isinstance(node.value, bool):
            return None
        return float(node.value)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _fold_numeric(node.operand)
        return None if inner is None else -inner
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.Mult, ast.Pow)
    ):
        left = _fold_numeric(node.left)
        right = _fold_numeric(node.right)
        if left is None or right is None:
            return None
        return left * right if isinstance(node.op, ast.Mult) else left**right
    return None


def _mentions_unit_constant(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if terminal_name(sub) in _UNIT_NAMES:
            return True
    return False


@_register
class MagicNumberRule(Rule):
    """R2: numeric literal where a ``repro.units`` constant exists."""

    rule_id = "R2"
    name = "magic-number"
    summary = (
        "unit-conversion literals (3600, 1024**2, 2**30, ...) must be "
        "spelled with repro.units constants"
    )

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        """Flag foldable numeric expressions matching a units constant."""
        defining_modules = ("repro/units.py", "repro/devtools/rules.py")
        if ctx.posix_path.endswith(defining_modules):
            return  # the modules that *define* the constants / this mapping
        flagged_within: list[ast.AST] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Constant, ast.BinOp)):
                continue
            if any(node in ast.walk(seen) for seen in flagged_within):
                continue  # already reported as part of a folded parent
            value = _fold_numeric(node)
            if value is None or value not in _UNIT_VALUES:
                continue
            if isinstance(node, ast.Constant) and ctx.parents.get(node) is not None:
                parent = ctx.parents[node]
                if isinstance(parent, ast.BinOp) and _mentions_unit_constant(
                    parent
                ):
                    continue  # e.g. ``1024 * units.KB`` — a count, not a unit
            flagged_within.append(node)
            pretty = int(value) if float(value).is_integer() else value
            yield self.violation(
                ctx,
                node,
                f"magic number {pretty} — use {_UNIT_VALUES[value]}",
            )


# ---------------------------------------------------------------------------
# R3: exception hierarchy
# ---------------------------------------------------------------------------

#: Builtin exception types that library code must not raise directly:
#: callers are promised that every library failure is a ``ReproError``.
#: Protocol errors (KeyError, TypeError, AssertionError, ...) stay
#: allowed — errors.py explicitly lets programming errors propagate.
_BANNED_RAISES = {
    "ArithmeticError",
    "BaseException",
    "EnvironmentError",
    "Exception",
    "IOError",
    "OSError",
    "RuntimeError",
    "ValueError",
}

#: Suggested ReproError replacement per banned builtin.
_RAISE_REPLACEMENTS = {
    "ValueError": "ValidationError",
    "RuntimeError": "UsageError",
}


@_register
class ExceptionHierarchyRule(Rule):
    """R3: ``raise`` of a non-``ReproError`` exception class."""

    rule_id = "R3"
    name = "exception-hierarchy"
    summary = (
        "library errors must derive from repro.errors.ReproError so one "
        "except clause catches everything the package raises"
    )

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        """Flag raises of banned builtin exception classes."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            name = terminal_name(node.exc)
            if name not in _BANNED_RAISES:
                continue
            hint = _RAISE_REPLACEMENTS.get(name, "a ReproError subclass")
            yield self.violation(
                ctx,
                node,
                f"raise of builtin {name} — use repro.errors.{hint} "
                "so package errors stay catchable as ReproError",
            )


# ---------------------------------------------------------------------------
# R4: power-state transitions outside the enclosure API
# ---------------------------------------------------------------------------

#: Modules allowed to mutate power state: the state machine itself.
_POWER_STATE_OWNERS = (
    "repro/storage/enclosure.py",
    "repro/storage/power.py",
)

_FALLBACK_TRANSITIONS = frozenset(
    {
        ("ACTIVE", "IDLE"),
        ("IDLE", "ACTIVE"),
        ("IDLE", "SPIN_DOWN"),
        ("SPIN_DOWN", "OFF"),
        ("OFF", "SPIN_UP"),
        ("SPIN_UP", "IDLE"),
        ("SPIN_UP", "ACTIVE"),
        ("SPIN_UP", "OFF"),
    }
)

_legal_transition_cache: frozenset[tuple[str, str]] | None = None


def _power_module_path() -> Path:
    return Path(__file__).resolve().parent.parent / "storage" / "power.py"


def _extract_transition_pairs(tree: ast.Module) -> frozenset[tuple[str, str]]:
    pairs: set[tuple[str, str]] = set()
    for node in ast.walk(tree):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == "LEGAL_TRANSITIONS"
            for t in targets
        ):
            continue
        for tup in ast.walk(value):
            pair = _power_state_pair(tup)
            if pair is not None:
                pairs.add(pair)
    return frozenset(pairs)


def legal_transition_names() -> frozenset[tuple[str, str]]:
    """Legal ``(source, target)`` state-name pairs.

    Extracted statically from the ``LEGAL_TRANSITIONS`` table in
    ``repro/storage/power.py`` so the linter and the state machine can
    never drift apart; falls back to a baked-in copy of the graph if the
    source file is unreadable (e.g. running from a zipapp).
    """
    global _legal_transition_cache
    if _legal_transition_cache is None:
        try:
            tree = ast.parse(_power_module_path().read_text(encoding="utf-8"))
            pairs = _extract_transition_pairs(tree)
        except (OSError, SyntaxError):
            pairs = frozenset()
        _legal_transition_cache = pairs or _FALLBACK_TRANSITIONS
    return _legal_transition_cache


def _power_state_pair(node: ast.AST) -> tuple[str, str] | None:
    """``(a, b)`` member names if ``node`` is ``(PowerState.A, PowerState.B)``."""
    if not isinstance(node, ast.Tuple) or len(node.elts) != 2:
        return None
    names = []
    for elt in node.elts:
        if (
            isinstance(elt, ast.Attribute)
            and terminal_name(elt.value) == "PowerState"
        ):
            names.append(elt.attr)
    if len(names) != 2:
        return None
    return names[0], names[1]


@_register
class PowerStateRule(Rule):
    """R4: power-state transitions fabricated outside the API."""

    rule_id = "R4"
    name = "power-state"
    summary = (
        "power state changes only through the DiskEnclosure state "
        "machine; transition pairs must be edges of LEGAL_TRANSITIONS"
    )

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        """Flag raw ``.state`` writes and illegal transition tuples."""
        owner = any(ctx.posix_path.endswith(p) for p in _POWER_STATE_OWNERS)
        legal = legal_transition_names()
        for node in ast.walk(ctx.tree):
            if not owner and isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                value = node.value
                if value is None:
                    continue
                writes_state = any(
                    isinstance(t, ast.Attribute)
                    and t.attr in ("state", "_state")
                    for t in targets
                )
                mentions_power_state = any(
                    isinstance(sub, ast.Attribute)
                    and terminal_name(sub.value) == "PowerState"
                    for sub in ast.walk(value)
                )
                if writes_state and mentions_power_state:
                    yield self.violation(
                        ctx,
                        node,
                        "power-state transition constructed outside the "
                        "DiskEnclosure/PowerModel API — drive the state "
                        "machine via submit()/settle() instead",
                    )
            pair = _power_state_pair(node)
            if pair is not None and pair not in legal:
                yield self.violation(
                    ctx,
                    node,
                    f"illegal power-state transition {pair[0]}→{pair[1]} "
                    "(not an edge of storage.power.LEGAL_TRANSITIONS)",
                )


# ---------------------------------------------------------------------------
# R5: public API annotations and docstrings
# ---------------------------------------------------------------------------


@_register
class PublicApiRule(Rule):
    """R5: public functions missing annotations or a docstring."""

    rule_id = "R5"
    name = "public-api"
    summary = (
        "every public function/method carries full parameter and return "
        "annotations plus a docstring"
    )

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        """Flag unannotated or undocumented public functions."""
        yield from self._scan(ctx, ctx.tree, in_class=False)

    def _scan(
        self, ctx: LintContext, scope: ast.AST, in_class: bool
    ) -> Iterator[Violation]:
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, ast.ClassDef):
                if not node.name.startswith("_"):
                    yield from self._scan(ctx, node, in_class=True)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_"):
                    continue  # private and dunder names are exempt
                yield from self._check_function(ctx, node, in_class)

    def _check_function(
        self,
        ctx: LintContext,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        in_class: bool,
    ) -> Iterator[Violation]:
        problems: list[str] = []
        if ast.get_docstring(node) is None:
            problems.append("missing docstring")
        if node.returns is None:
            problems.append("missing return annotation")
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        static = any(
            terminal_name(dec) == "staticmethod" for dec in node.decorator_list
        )
        if in_class and not static and positional:
            positional = positional[1:]  # self / cls
        unannotated = [
            a.arg
            for a in [*positional, *args.kwonlyargs, args.vararg, args.kwarg]
            if a is not None and a.annotation is None
        ]
        if unannotated:
            problems.append(
                "unannotated parameter(s): " + ", ".join(unannotated)
            )
        if problems:
            yield self.violation(
                ctx,
                node,
                f"public function {node.name!r}: " + "; ".join(problems),
            )


# ---------------------------------------------------------------------------
# R6: mutable default arguments
# ---------------------------------------------------------------------------

_MUTABLE_CALLS = {
    "bytearray",
    "defaultdict",
    "deque",
    "dict",
    "list",
    "set",
    "Counter",
    "OrderedDict",
}


@_register
class MutableDefaultRule(Rule):
    """R6: mutable default argument values."""

    rule_id = "R6"
    name = "mutable-default"
    summary = (
        "default argument values are evaluated once at def time; use "
        "None and construct inside the body"
    )

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        """Flag list/dict/set literals (or constructors) used as defaults."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = [*node.args.defaults, *node.args.kw_defaults]
            for default in defaults:
                if default is None:
                    continue
                if self._is_mutable(default):
                    yield self.violation(
                        ctx,
                        default,
                        f"mutable default argument in {node.name!r} — "
                        "default to None and build the value in the body",
                    )

    @staticmethod
    def _is_mutable(node: ast.AST) -> bool:
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
        ):
            return True
        return (
            isinstance(node, ast.Call)
            and terminal_name(node.func) in _MUTABLE_CALLS
        )


# ---------------------------------------------------------------------------
# R7: naked exception handlers
# ---------------------------------------------------------------------------

#: Exception names too broad to catch: a handler naming one of these
#: swallows AuditError, fault-injection errors, and genuine bugs alike.
#: Catch the narrowest ReproError subclass that the guarded code can
#: actually raise; true isolation boundaries (worker pools) carry an
#: explicit ``# lint: ignore[R7]`` with a justification.
_NAKED_EXCEPTS = {"BaseException", "Exception"}


@_register
class NakedExceptRule(Rule):
    """R7: bare ``except:`` or ``except Exception/BaseException:``."""

    rule_id = "R7"
    name = "naked-except"
    summary = (
        "handlers must name the narrowest exception they expect; a "
        "naked except hides AuditError and injected-fault failures"
    )

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        """Flag handlers with no type, or an over-broad builtin type."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.violation(
                    ctx,
                    node,
                    "bare except: catches everything, including "
                    "KeyboardInterrupt — name the exception(s) expected",
                )
                continue
            types = (
                node.type.elts
                if isinstance(node.type, ast.Tuple)
                else [node.type]
            )
            for exc in types:
                name = terminal_name(exc)
                if name in _NAKED_EXCEPTS:
                    yield self.violation(
                        ctx,
                        node,
                        f"except {name}: is too broad — it silently "
                        "swallows audit and fault-injection failures; "
                        "catch the narrowest expected type",
                    )


# ---------------------------------------------------------------------------
# R8: ad-hoc virtual-time calls outside the simulation kernel
# ---------------------------------------------------------------------------

#: The module allowed to drive time-owned entry points: the kernel
#: package itself (any file under it).
_TIME_OWNER_PACKAGE = "repro/engine/"

#: Modules owning a time-driven method and allowed to call it on
#: themselves (the timeline's ``finish`` resamples; the controller runs
#: its own bookkeeping on every submit).
_TIME_OWNER_FILES = (
    "repro/monitoring/timeline.py",
    "repro/storage/controller.py",
)

#: Timeline methods that advance sampling state.  Only suspicious on a
#: timeline-looking receiver — ``random.sample`` is a different thing.
_TIMELINE_METHODS = frozenset({"sample", "sample_due"})


@_register
class AdHocTimeRule(Rule):
    """R8: timeline sampling / fault bookkeeping bypassing the kernel."""

    rule_id = "R8"
    name = "ad-hoc-time"
    summary = (
        "PowerTimeline.sample/sample_due and StorageController.on_time "
        "fire as repro.engine events; calling them directly reintroduces "
        "ad-hoc time"
    )

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        """Flag time-owned method calls outside the kernel/owner modules."""
        path = ctx.posix_path
        if _TIME_OWNER_PACKAGE in path:
            return
        if any(path.endswith(p) for p in _TIME_OWNER_FILES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not isinstance(
                node.func, ast.Attribute
            ):
                continue
            method = node.func.attr
            if method == "on_time":
                yield self.violation(
                    ctx,
                    node,
                    "direct call to on_time() — fault bookkeeping fires as "
                    "a kernel FaultBookkeepingEvent; schedule it via "
                    "repro.engine instead",
                )
            elif (
                method in _TIMELINE_METHODS
                and "timeline" in terminal_name(node.func.value).lower()
            ):
                yield self.violation(
                    ctx,
                    node,
                    f"direct call to {method}() on a power timeline — "
                    "samples fire as kernel TimelineSampleEvents; schedule "
                    "them via repro.engine instead",
                )


# ---------------------------------------------------------------------------
# R10: cross-array access via hardcoded namespaced names
# ---------------------------------------------------------------------------

#: The package that owns fleet namespacing: router, splitter, runner,
#: aggregator, and array-level chaos may spell array-qualified names
#: (they construct and audit them); everyone else must derive ownership
#: from the router.
_FLEET_OWNER_PACKAGE = "repro/fleet/"

#: A fleet-namespaced component name: ``"array-01:enc-00"`` or a
#: default-volume form like ``"vol/array-01:enc-00"``.  Matching one of
#: these as a *literal* means the code baked in another array's
#: identity instead of asking the router.
_ARRAY_NAME_PATTERN = re.compile(r"(?:^|/)array-\d+:")

#: Storage entry points whose target a literal array name would bypass
#: the router for: the storage mutators plus the virtualization/controller
#: lookups that resolve component names to state.
_ARRAY_ACCESS_METHODS = frozenset(
    {
        "enclosure",
        "enclosure_of",
        "items_on",
        "used_bytes",
        "free_bytes",
        "create_volume",
        "add_item",
        "move_item",
        "volume",
    }
) | STORAGE_MUTATORS


@_register
class CrossArrayAccessRule(Rule):
    """R10: hardcoded foreign-array names outside :mod:`repro.fleet`."""

    rule_id = "R10"
    name = "cross-array-access"
    summary = (
        "array-qualified component names ('array-01:enc-00') are owned "
        "by the fleet router; code outside repro.fleet must derive them "
        "via HashRouter/array_name, never hardcode another array's "
        "namespace"
    )

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        """Flag storage calls passing a literal array-namespaced name."""
        if _FLEET_OWNER_PACKAGE in ctx.posix_path:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not isinstance(
                node.func, ast.Attribute
            ):
                continue
            method = node.func.attr
            if method not in _ARRAY_ACCESS_METHODS:
                continue
            arguments = [*node.args, *[kw.value for kw in node.keywords]]
            for argument in arguments:
                if not (
                    isinstance(argument, ast.Constant)
                    and isinstance(argument.value, str)
                    and _ARRAY_NAME_PATTERN.search(argument.value)
                ):
                    continue
                yield self.violation(
                    ctx,
                    node,
                    f"call to {method}() hardcodes the array-namespaced "
                    f"name {argument.value!r} — item/enclosure ownership "
                    "belongs to repro.fleet.routing; resolve names "
                    "through the HashRouter instead of baking in "
                    "another array's namespace",
                )


def resolve_rules(selectors: Iterable[str] | None = None) -> list[Rule]:
    """Resolve selectors (ids or names) to rule objects; all by default."""
    if not selectors:
        return list(RULES.values())
    by_name = {rule.name: rule for rule in RULES.values()}
    chosen: list[Rule] = []
    for selector in selectors:
        rule = RULES.get(selector.upper()) or by_name.get(selector.lower())
        if rule is None:
            known = ", ".join([*RULES, *by_name])
            raise ValidationError(
                f"unknown lint rule {selector!r} (known: {known})"
            )
        if rule not in chosen:
            chosen.append(rule)
    return chosen


RuleFactory = Callable[[], Rule]
