"""Whole-program static analysis: dimensional consistency and determinism.

Where :mod:`repro.devtools.lint` checks one file at a time,
this package analyses the *program*: pass 1
(:mod:`~repro.devtools.analysis.symbols`) indexes every module under the
given roots into a symbol table and call graph, pass 2
(:mod:`~repro.devtools.analysis.framework`) runs registered checkers
that resolve names, attribute types, and calls through that index.

Built-in checkers:

* **D1 — dimensional consistency**
  (:mod:`~repro.devtools.analysis.dimensions`, D101–D104): propagates
  the :mod:`repro.units` dimension aliases (``Seconds``, ``Joules``,
  ``Watts``, ``Bytes``, ``Rate``) through assignments, calls, and
  attribute reads, and flags mixed-dimension arithmetic, comparisons,
  returns, and arguments.
* **D2 — storage boundary & determinism**
  (:mod:`~repro.devtools.analysis.determinism`, D201–D204): proves
  storage mutators are called only by the action layer and the
  controller, and that policy entry points reach them only via
  ``ActionExecutor.apply`` (D201); flags unseeded :mod:`random`,
  wall-clock reads, and unordered ``set`` iteration feeding
  ordering-sensitive sinks.
* **D205 — snapshot protocol**
  (:mod:`~repro.devtools.analysis.snapshots`): flags policy classes
  whose mutable state is invisible to :mod:`repro.persistence` —
  ``self`` attributes grown outside construction without a matching
  ``snapshot_state``/``restore_state`` pair, and half-implemented
  protocol pairs.

Run it as ``ecostor analyze`` or ``python -m repro.devtools.analysis``;
findings are silenced inline (``# analysis: ignore[D203]``) or
grandfathered in the committed ``analysis-baseline.json``
(:mod:`~repro.devtools.analysis.baseline`).  See ``docs/analysis.md``.
"""

from typing import Any

__all__ = [
    "AnalysisReport",
    "CHECKERS",
    "Checker",
    "Finding",
    "Program",
    "analyze_paths",
    "index_paths",
    "main",
]

#: Lazy attribute → defining submodule, mirroring :mod:`repro.devtools`.
_EXPORTS = {
    "AnalysisReport": "repro.devtools.analysis.framework",
    "CHECKERS": "repro.devtools.analysis.framework",
    "Checker": "repro.devtools.analysis.framework",
    "Finding": "repro.devtools.analysis.framework",
    "Program": "repro.devtools.analysis.symbols",
    "analyze_paths": "repro.devtools.analysis.cli",
    "index_paths": "repro.devtools.analysis.symbols",
    "main": "repro.devtools.analysis.cli",
}


def __getattr__(name: str) -> Any:
    """Import the submodule backing ``name`` on first access."""
    if name in _EXPORTS:
        import importlib

        module = importlib.import_module(_EXPORTS[name])
        if name == "CHECKERS":
            # Accessing the registry arms the built-in checkers first.
            importlib.import_module("repro.devtools.analysis.checks")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
