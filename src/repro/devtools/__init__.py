"""Developer tooling: domain lint rules and runtime invariant audits.

The simulator's correctness rests on conventions nothing in Python
enforces: SI base units everywhere (:mod:`repro.units`), a closed
power-state transition graph (:mod:`repro.storage.power`), and a single
exception hierarchy (:mod:`repro.errors`).  Silent violations of those
conventions produce *wrong energy numbers* rather than crashes — the
worst possible failure mode for a paper reproduction whose headline
claims rest on break-even arithmetic (paper §II-B, Table II).

This package provides three independent lines of defence, all built
only on the standard library (no mypy/ruff dependency):

* :mod:`repro.devtools.lint` — a line-local static analyser over
  :mod:`ast` with a registry of domain rules (R1–R8, R10), per-line
  suppression comments (``# lint: ignore[rule-id]``), and text/JSON
  reporters.  Run it as ``python -m repro.devtools.lint src`` or
  ``ecostor lint``.
* :mod:`repro.devtools.analysis` — a whole-program analyser that
  indexes the package into a symbol table and call graph, then checks
  dimensional consistency over the :mod:`repro.units` aliases
  (D101–D104), the storage boundary — storage mutated only through
  the :mod:`repro.actions` executor (D201) — and determinism and
  snapshottability (D202–D205), gated on a
  committed ``analysis-baseline.json``.  Run it as ``ecostor analyze``.
* :mod:`repro.devtools.audit` — an opt-in runtime
  :class:`~repro.devtools.audit.InvariantAuditor` the trace replayer
  calls every policy monitoring period to assert energy conservation,
  capacity accounting, and monotonic simulated time, raising
  :class:`~repro.errors.AuditError` with a dump of the violating state.
  Enable it with ``ecostor run WORKLOAD POLICY --audit``.

See ``docs/devtools.md`` for the rule catalogue and
``docs/analysis.md`` for the analysis checks.
"""

from typing import Any

__all__ = [
    "CHECKERS",
    "Finding",
    "InvariantAuditor",
    "LintContext",
    "LintReport",
    "RULES",
    "Rule",
    "Violation",
    "analyze_paths",
    "lint_paths",
]

#: Lazy attribute → defining submodule.  Submodules are imported on first
#: access so that ``python -m repro.devtools.lint`` does not import the
#: module twice (once as a package attribute, once as ``__main__``).
_EXPORTS = {
    "InvariantAuditor": "repro.devtools.audit",
    "LintReport": "repro.devtools.lint",
    "lint_paths": "repro.devtools.lint",
    "RULES": "repro.devtools.rules",
    "LintContext": "repro.devtools.rules",
    "Rule": "repro.devtools.rules",
    "Violation": "repro.devtools.rules",
    "analyze_paths": "repro.devtools.analysis.cli",
    "CHECKERS": "repro.devtools.analysis.framework",
    "Finding": "repro.devtools.analysis.framework",
}


def __getattr__(name: str) -> Any:
    """Import the submodule backing ``name`` on first access."""
    if name in _EXPORTS:
        import importlib

        module = importlib.import_module(_EXPORTS[name])
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
