"""D205 — stateful policies must implement the Snapshottable protocol.

Crash-safe resume (:mod:`repro.persistence`) rebuilds a simulation from
a ``.ecsn`` snapshot by calling ``snapshot_state`` / ``restore_state``
on every stateful component.  The seam is only bit-identical if *every*
accumulator survives the round trip — a policy that grows window
cursors or counters the capture never sees will replay correctly until
the first resume, then silently diverge.

D205 (``unsnapshottable-state``) closes that hole statically.  For each
class inheriting (transitively, by bare name) from ``PowerPolicy`` it
flags:

* **Hidden state** — the class rebinds ``self.<attr>`` in a method
  outside the construction/restore surface (``__init__``, ``bind``,
  ``snapshot_state``, ``restore_state``) without defining *both*
  protocol methods in its own body.  Inherited implementations do not
  count: the base class cannot know about attributes it never assigns.
* **Half the protocol** — the class defines exactly one of
  ``snapshot_state`` / ``restore_state``; a capture nobody can restore
  (or vice versa) is always a bug.

Stateless planners are fine: the ``PowerPolicy`` base snapshots the
shared ``determinations`` counter for them.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.analysis.determinism import POLICY_BASE
from repro.devtools.analysis.framework import (
    Checker,
    Finding,
    register_checker,
)
from repro.devtools.analysis.symbols import ClassInfo, ModuleIndex, Program

__all__ = ["SnapshotProtocolChecker"]

#: The two halves of the repro.persistence Snapshottable protocol.
_PROTOCOL = ("snapshot_state", "restore_state")

#: Methods allowed to rebind ``self.<attr>`` without implying hidden
#: state: construction wiring plus the protocol itself.
_EXEMPT_METHODS = frozenset({"__init__", "bind", *_PROTOCOL})


def _self_assignments(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    """Attribute names rebound on ``self`` anywhere inside ``fn``."""
    names: list[str] = []
    for node in ast.walk(fn):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and target.attr not in names
            ):
                names.append(target.attr)
    return names


@register_checker
class SnapshotProtocolChecker(Checker):
    """D205: policy state invisible to snapshot/restore."""

    check_ids = {"D205": "unsnapshottable-state"}

    def check_module(
        self, module: ModuleIndex, program: Program
    ) -> Iterator[Finding]:
        """Audit every policy class defined in ``module``."""
        for cls in module.classes.values():
            if not program.inherits_from(cls, POLICY_BASE):
                continue
            yield from self._check_class(cls, module)

    def _check_class(
        self, cls: ClassInfo, module: ModuleIndex
    ) -> Iterator[Finding]:
        defined = [name for name in _PROTOCOL if name in cls.methods]
        if len(defined) == 1:
            present = defined[0]
            missing = next(n for n in _PROTOCOL if n != present)
            yield self.finding(
                "D205",
                module,
                cls.methods[present].node,
                cls.methods[present].qualname,
                f"defines {present}() but not {missing}() — half the "
                "Snapshottable protocol; a capture nobody can restore "
                "(or restore nobody can capture) breaks crash-safe resume",
            )
            return
        if len(defined) == 2:
            return  # full protocol: hidden-state rule satisfied by contract
        mutations = [
            (name, attr)
            for name, fn in cls.methods.items()
            if name not in _EXEMPT_METHODS and not fn.is_property
            for attr in _self_assignments(fn.node)
        ]
        if not mutations:
            return
        attrs = sorted({attr for _, attr in mutations})
        methods = sorted({name for name, _ in mutations})
        yield self.finding(
            "D205",
            module,
            cls.node,
            cls.qualname,
            f"mutates {', '.join('self.' + a for a in attrs)} in "
            f"{', '.join(m + '()' for m in methods)} but implements no "
            "snapshot_state()/restore_state() — state the persistence "
            "layer cannot capture makes resumed replays diverge",
        )
