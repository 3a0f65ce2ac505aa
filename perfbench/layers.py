"""Outside-in layer trace: wraps each layer's public functions.

The tracer replaces functions of the program's layers, at class or
module level, with timing wrappers, before any simulation context is
built.  Nothing under ``src/`` changes: collaborators that are bound
per run (the kernel binds ``controller.submit`` and the policy hooks,
the controller binds the storage monitor's tap) pick the wrappers up
because they look the attribute up after the wrapping.

Two kinds of boundary are kept:

* **Spans** (cell, replay, checkpoint, ``apply``): one record each, with
  name, start, end, parent span and the cell id.
* **Aggregates** (everything per I/O): count, total time and time spent
  in wrapped callees, accumulated in place, because some run up to
  733k times per cell.
* **Opaque** boundaries (the invariant auditor): timed whole, with
  tracing paused inside, so the enclosure settles and book reads an
  audit makes are not charged to the storage layers.

A layer's self time is its boundaries' total minus their callees'.
Work the program hand-inlines into a caller (for example the
enclosure settle steps inlined into ``DiskEnclosure.submit_one``, or
the partition checks inlined into ``StorageCache.read_hit``) counts as
that caller's self time, as do private helpers (``_run_management``
inside ``on_checkpoint``, ``_capture`` inside ``record``).
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import time
from pathlib import Path
from typing import Any, Callable

clock = time.perf_counter

#: (module, owner class or None for a module function, function names, layer).
#: Only names an owner defines itself are wrapped, so inherited defaults
#: (``PowerPolicy.after_io`` on no-power-saving) stay identical objects.
AGGREGATED: tuple[tuple[str, str | None, tuple[str, ...], str], ...] = (
    ("repro.experiments.parallel", None, ("result_to_dict",), "experiments.serialize"),
    ("repro.experiments.parallel", None, ("result_from_dict",), "experiments.deserialize"),
    ("repro.experiments.parallel", None, ("run_cell",), "experiments.assemble"),
    ("repro.experiments.runner", None, ("interval_curve", "window_read_responses"),
     "experiments.assemble"),
    ("repro.experiments.runner", None, ("build_context",), "experiments.install"),
    ("repro.workloads.items", "Workload", ("install",), "experiments.install"),
    ("repro.storage.controller", "StorageController",
     ("submit", "submit_fast", "on_time", "preload_item", "unpin_item",
      "select_write_delay", "flush_write_delay", "flush_item", "finish"),
     "storage.controller"),
    ("repro.storage.controller", "StorageController",
     ("migrate_item", "charge_block_migration", "promote_item", "demote_item",
      "archive_item", "replicate_item"),
     "storage.migration"),
    ("repro.storage.migration", "MigrationEngine", ("execute",), "storage.migration"),
    ("repro.storage.cache", "StorageCache", ("read_hit",), "storage.cache"),
    ("repro.storage.cache", "LRUBlockCache", ("access", "invalidate_item"), "storage.cache"),
    ("repro.storage.cache", "WriteDelayPartition",
     ("select", "deselect", "absorb_write", "is_selected", "is_dirty",
      "dirty_bytes_of", "dirty_items", "selected_items", "flush_item", "flush_all"),
     "storage.cache"),
    ("repro.storage.cache", "PreloadPartition",
     ("pin", "unpin", "is_pinned", "fits", "item_ids"), "storage.cache"),
    ("repro.storage.enclosure", "DiskEnclosure",
     ("submit", "submit_one", "background_transfer", "occupy", "settle",
      "enable_power_off", "disable_power_off", "finish", "energy_joules",
      "time_in_state", "average_watts", "service_time"),
     "storage.enclosure"),
    ("repro.monitoring.application", "ApplicationMonitor",
     ("record", "record_fast", "begin_window", "window_records", "window_columns",
      "full_trace", "response_stats", "register_item", "volume_of", "known_items"),
     "monitoring.application"),
    ("repro.monitoring.storage", "StorageMonitor",
     ("on_physical", "on_physical_fast", "begin_window", "window_stats", "finish",
      "intervals", "all_intervals", "last_io_time", "power_status",
      "power_consumption", "spin_up_count", "spin_ups_since"),
     "monitoring.storage"),
    ("repro.core.manager", "EnergyEfficientPolicy", ("after_io", "after_io_fast"),
     "core.manager.after_io"),
    ("repro.baselines.pdc", "PDCPolicy", ("after_io", "after_io_fast"),
     "baselines.pdc.after_io"),
    ("repro.baselines.ddr", "DDRPolicy", ("after_io", "after_io_fast"),
     "baselines.ddr.after_io"),
)

#: Boundaries kept as individual spans.
SPANS: tuple[tuple[str, str | None, tuple[str, ...], str], ...] = (
    ("repro.trace.replay", "TraceReplayer", ("run",), "trace.result"),
    ("repro.engine.kernel", "SimulationKernel", ("replay",), "engine"),
    ("repro.core.manager", "EnergyEfficientPolicy", ("on_checkpoint",),
     "core.manager.checkpoint"),
    ("repro.baselines.pdc", "PDCPolicy", ("on_checkpoint",), "baselines.pdc.checkpoint"),
    ("repro.baselines.ddr", "DDRPolicy", ("on_checkpoint",), "baselines.ddr.checkpoint"),
    ("repro.actions.executor", "ActionExecutor", ("apply",), "actions"),
)

#: Boundaries whose callees are not traced: the auditor settles enclosures
#: and reads every book, which is audit work, not the layers' own.
OPAQUE: tuple[tuple[str, str | None, tuple[str, ...], str], ...] = (
    ("repro.devtools.audit", "InvariantAuditor", ("check",), "devtools.audit"),
)

CELL = "experiments.cell"
#: Policies whose after-I/O hooks and checkpoints are reported.
HOOK_LAYERS = {
    "proposed": "core.manager",
    "pdc": "baselines.pdc",
    "ddr": "baselines.ddr",
}


class Tracer:
    """Wraps the layers, accumulates their times, and restores them.

    ``stack`` holds, per open boundary, the time its wrapped callees
    took so far; ``layer_stack`` the layer of each open boundary, so a
    call counts as a layer *entry* only when its caller is another layer
    (``submit`` -> ``submit_fast`` is one controller call, not two).
    """

    def __init__(self) -> None:
        self.stack: list[float] = [0.0]
        self.layer_stack: list[str] = [""]
        #: key -> [calls, entries, total, child]
        self.agg: dict[str, list[float]] = {}
        #: (cell, name, start, end, parent span index or -1)
        self.spans: list[tuple[int, str, float, float, int] | None] = []
        self.span_stack: list[int] = [-1]
        self.cell = -1
        #: Set while an opaque boundary runs; wrappers then pass through.
        self.paused = [False]
        self.cell_aggs: list[dict[str, tuple[float, ...]]] = []
        self.contexts: list[Any] = []
        self.apply_actions = 0
        self.apply_useful = 0
        self._cell_start = 0.0
        self._cell_span = -1
        self._undo: list[tuple[Any, str, Any]] = []
        #: Unwrapped functions, by ``Owner.name``, for the tracer's own reads.
        self.original: dict[str, Callable[..., Any]] = {}

    # -- wrapping --------------------------------------------------------
    def install(self) -> None:
        """Wrap every boundary (call before any context is built)."""
        for table, kind in ((AGGREGATED, "aggregate"), (SPANS, "span"), (OPAQUE, "opaque")):
            for module_name, owner_name, names, layer in table:
                module = importlib.import_module(module_name)
                owner = module if owner_name is None else getattr(module, owner_name)
                for name in names:
                    if owner_name is not None and name not in vars(owner):
                        continue
                    original = getattr(owner, name)
                    if not inspect.isfunction(original):
                        raise TypeError(f"{owner_name}.{name} is not a plain function")
                    key = f"{layer}:{owner_name or module_name}.{name}"
                    wrapped = self._wrap(original, key, layer, kind)
                    if name == "build_context":
                        wrapped = self._capturing(wrapped)
                    elif owner_name == "ActionExecutor":
                        wrapped = self._judging(wrapped)
                    self._undo.append((owner, name, original))
                    self.original[f"{owner_name or module_name}.{name}"] = original
                    setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _wrap(self, fn: Callable[..., Any], key: str, layer: str, kind: str) -> Callable[..., Any]:
        slot = self.agg.setdefault(key, [0, 0, 0.0, 0.0])
        stack = self.stack
        layer_stack = self.layer_stack
        paused = self.paused
        if kind == "opaque":
            def opaque(*args: Any, **kwargs: Any) -> Any:
                paused[0] = True
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    paused[0] = False
                    slot[0] += 1
                    slot[1] += 1
                    slot[2] += elapsed
                    stack[-1] += elapsed
            return opaque

        if kind == "aggregate":
            def aggregated(*args: Any, **kwargs: Any) -> Any:
                if paused[0]:
                    return fn(*args, **kwargs)
                entry = layer_stack[-1] != layer
                stack.append(0.0)
                layer_stack.append(layer)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    layer_stack.pop()
                    slot[0] += 1
                    slot[1] += entry
                    slot[2] += elapsed
                    slot[3] += stack.pop()
                    stack[-1] += elapsed
            return aggregated

        spans = self.spans
        span_stack = self.span_stack
        tracer = self

        def spanned(*args: Any, **kwargs: Any) -> Any:
            if paused[0]:
                return fn(*args, **kwargs)
            entry = layer_stack[-1] != layer
            stack.append(0.0)
            layer_stack.append(layer)
            index = len(spans)
            spans.append(None)
            span_stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                span_stack.pop()
                layer_stack.pop()
                elapsed = end - start
                slot[0] += 1
                slot[1] += entry
                slot[2] += elapsed
                slot[3] += stack.pop()
                stack[-1] += elapsed
                spans[index] = (tracer.cell, key, start, end, span_stack[-1])
        return spanned

    def _capturing(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Keep each built context, to read its public counters later."""
        def capture(*args: Any, **kwargs: Any) -> Any:
            context = fn(*args, **kwargs)
            self.contexts.append(context)
            return context
        return capture

    def _judging(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Count the applied actions that changed storage state.

        The state is read before and after ``apply``, through unwrapped
        functions.  The reads are timed as ``tracer:observe`` and taken
        out of the caller's self time.
        """
        slot = self.agg.setdefault("tracer:observe", [0, 0, 0.0, 0.0])
        stack = self.stack

        def judge(executor: Any, now: float, plan: Any, dry_run: bool = False) -> Any:
            if dry_run:
                return fn(executor, now, plan, dry_run)
            actions = list(plan)
            start = clock()
            before = [self._observe(executor.controller, a) for a in actions]
            spent = clock() - start
            report = fn(executor, now, plan, dry_run)
            start = clock()
            after = [self._observe(executor.controller, a) for a in actions]
            spent += clock() - start
            slot[0] += 1
            slot[2] += spent
            stack[-1] += spent
            self.apply_actions += len(actions)
            self.apply_useful += sum(b != c for b, c in zip(before, after))
            return report
        return judge

    def _observe(self, controller: Any, action: Any) -> Any:
        """The slice of storage state one action may change."""
        kind = type(action).__name__
        virt = controller.virtualization
        cache = controller.cache
        original = self.original
        if kind == "SetPowerOffEnabled":
            return virt.enclosure(action.enclosure).power_off_enabled
        if kind in ("MigrateItem", "PromoteItem", "DemoteItem", "ArchiveItem"):
            if not virt.has_item(action.item_id):
                return None
            return virt.enclosure_of(action.item_id).name
        if kind == "ReplicateItem":
            return virt.replicas_of(action.item_id)
        if kind in ("PreloadItem", "UnpinItem"):
            return original["PreloadPartition.is_pinned"](cache.preload, action.item_id)
        if kind == "EnableWriteDelay":
            return frozenset(original["WriteDelayPartition.selected_items"](cache.write_delay))
        if kind == "FlushItem":
            return original["WriteDelayPartition.dirty_bytes_of"](cache.write_delay, action.item_id)
        if kind == "FlushWriteDelay":
            return cache.write_delay.dirty_pages
        if kind == "ChargeBlockMigration":
            return controller.migrated_bytes
        return None

    # -- cells -----------------------------------------------------------
    def open_cell(self) -> None:
        """Start the span of the next cell."""
        self.cell += 1
        self.stack.append(0.0)
        self.layer_stack.append(CELL)
        self._cell_span = len(self.spans)
        self.spans.append(None)
        self.span_stack.append(self._cell_span)
        self._cell_start = clock()

    def close_cell(self) -> None:
        """End the current cell's span and snapshot the aggregates."""
        end = clock()
        self.span_stack.pop()
        self.layer_stack.pop()
        child = self.stack.pop()
        elapsed = end - self._cell_start
        slot = self.agg.setdefault(f"{CELL}:cell", [0, 0, 0.0, 0.0])
        slot[0] += 1
        slot[1] += 1
        slot[2] += elapsed
        slot[3] += child
        self.spans[self._cell_span] = (self.cell, f"{CELL}:cell", self._cell_start, end, -1)
        self.cell_aggs.append({k: tuple(v) for k, v in self.agg.items()})

    def next_cell(self, cells: int) -> None:
        """Close the current cell and open the next, if any of ``cells`` remain."""
        self.close_cell()
        if self.cell + 1 < cells:
            self.open_cell()

    def per_cell(self) -> list[dict[str, tuple[float, ...]]]:
        """Aggregates of each cell alone (differences of the snapshots)."""
        cells = []
        previous: dict[str, tuple[float, ...]] = {}
        for snapshot in self.cell_aggs:
            zero = (0, 0, 0.0, 0.0)
            cells.append({
                key: tuple(a - b for a, b in zip(value, previous.get(key, zero)))
                for key, value in snapshot.items()
            })
            previous = snapshot
        return cells

    def write_spans(self, path: Path, meta: dict[str, Any]) -> None:
        """Write the spans and per-cell aggregates once, gzipped JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps({"meta": meta}) + "\n")
            for index, cell in enumerate(self.per_cell()):
                out.write(json.dumps({"cell": index, "aggregates": cell}) + "\n")
            for index, span in enumerate(self.spans):
                if span is not None:
                    cell, name, start, end, parent = span
                    out.write(json.dumps([index, cell, name, start, end, parent]) + "\n")

