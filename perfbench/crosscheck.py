"""Cross-check the traced layer split against a cProfile of the same sweep.

Run from the repository root::

    python3 perfbench/crosscheck.py --workload tpch --seed 0

Makes one traced sweep (``perfbench/layers.py``) and one sweep under
cProfile, both without the auditor, and prints each layer group's share
of the time from both.  cProfile's ``tottime`` is grouped by the module
a function lives in.  Time of functions outside the program's layers
(builtins, the standard library, dataclass-generated ``__init__``, and
the value-type modules ``repro.trace.records``, ``repro.actions.records``
and ``repro.actions.plan``) is handed to their callers, in proportion to
the time each caller spent in them: ``ActionRecord.to_dict`` called by
the serializer is serializer time, as the spans count it.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import pstats
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layers import Tracer  # noqa: E402

#: Source file (relative to ``src/repro``) -> comparison group.
MODULE_GROUPS = {
    "experiments/parallel.py": "experiments",
    "experiments/runner.py": "experiments",
    "experiments/testbed.py": "experiments",
    "analysis/intervals.py": "experiments",
    "analysis/metrics.py": "experiments",
    "simulation.py": "experiments",
    "workloads/items.py": "experiments",
    "experiments/serialize.py": "serialize",
    "trace/replay.py": "trace.result",
    "faults/report.py": "trace.result",
    "storage/meter.py": "trace.result",
    "engine/kernel.py": "engine",
    "engine/queue.py": "engine",
    "engine/events.py": "engine",
    "engine/clock.py": "engine",
    "storage/controller.py": "storage.controller",
    "storage/virtualization.py": "storage.controller",
    "storage/migration.py": "storage.migration",
    "storage/cache.py": "storage.cache",
    "storage/enclosure.py": "storage.enclosure",
    "storage/power.py": "storage.enclosure",
    "monitoring/application.py": "monitoring.application",
    "monitoring/storage.py": "monitoring.storage",
    "actions/executor.py": "actions",
}
#: Directories whose every module belongs to one group.
PACKAGE_GROUPS = {"core/": "policy", "baselines/": "policy", "engine/": "engine"}

#: Trace layer -> comparison group.
LAYER_GROUPS = {
    "experiments.cell": "experiments",
    "experiments.install": "experiments",
    "experiments.assemble": "experiments",
    "experiments.serialize": "serialize",
    "experiments.deserialize": "serialize",
    "trace.result": "trace.result",
    "engine": "engine",
    "storage.controller": "storage.controller",
    "storage.migration": "storage.migration",
    "storage.cache": "storage.cache",
    "storage.enclosure": "storage.enclosure",
    "monitoring.application": "monitoring.application",
    "monitoring.storage": "monitoring.storage",
    "actions": "actions",
    "tracer": "tracer",
}


def group_of_file(filename: str) -> str | None:
    """The group of a source file, or ``None`` to hand its time to callers."""
    marker = "/repro/"
    if marker not in filename:
        return None
    relative = filename.split(marker, 1)[1]
    if relative in MODULE_GROUPS:
        return MODULE_GROUPS[relative]
    for prefix, group in PACKAGE_GROUPS.items():
        if relative.startswith(prefix):
            return group
    return None


def profile_split(stats: pstats.Stats) -> dict[str, float]:
    """Seconds per group from cProfile ``tottime``, unmapped time to callers."""
    table = stats.stats  # type: ignore[attr-defined]
    memo: dict[tuple, dict[str, float]] = {}

    def shares(func: tuple, depth: int = 0) -> dict[str, float]:
        """How one second of ``func``'s own time divides among groups."""
        if func in memo:
            return memo[func]
        group = group_of_file(func[0])
        if group is not None:
            memo[func] = {group: 1.0}
            return memo[func]
        callers = table.get(func, (0, 0, 0.0, 0.0, {}))[4]
        weights = {caller: entry[2] for caller, entry in callers.items()}
        total = sum(weights.values())
        if depth > 20 or total <= 0:
            memo[func] = {"other": 1.0}
            return memo[func]
        memo[func] = {"other": 1.0}  # recursion guard
        out: dict[str, float] = defaultdict(float)
        for caller, weight in weights.items():
            for name, share in shares(caller, depth + 1).items():
                out[name] += share * weight / total
        memo[func] = dict(out)
        return memo[func]

    seconds: dict[str, float] = defaultdict(float)
    for func, (_, _, tottime, _, _) in table.items():
        for name, share in shares(func).items():
            seconds[name] += tottime * share
    return dict(seconds)


def span_split(tracer: Tracer) -> dict[str, float]:
    """Self seconds per group from the tracer's aggregates."""
    seconds: dict[str, float] = defaultdict(float)
    for key, (_, _, total, child) in tracer.agg.items():
        layer = key.split(":", 1)[0]
        for prefix in ("core.manager", "baselines."):
            if layer.startswith(prefix):
                layer = "policy"
        seconds[LAYER_GROUPS.get(layer, layer)] += total - child
    return dict(seconds)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fileserver", "tpcc", "tpch"))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    run.build_cold(args.workload, args.seed)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.open_cell()
        run.run_sweep(args.workload, args.seed,
                      on_cell=lambda: tracer.next_cell(len(run.POLICIES)))
    finally:
        tracer.uninstall()
    traced = span_split(tracer)
    gc.collect()

    profiler = cProfile.Profile()
    profiler.enable()
    run.run_sweep(args.workload, args.seed)
    profiler.disable()
    profiled = profile_split(pstats.Stats(profiler))

    traced_total = sum(traced.values())
    profiled_total = sum(profiled.values())
    print(f"{args.workload} seed {args.seed}: traced {traced_total:.2f} s, "
          f"cProfile {profiled_total:.2f} s")
    print(f"{'group':24s} {'spans':>8s} {'cProfile':>9s} {'diff':>7s}")
    for group in sorted(set(traced) | set(profiled), key=lambda g: -traced.get(g, 0.0)):
        a = traced.get(group, 0.0) / traced_total
        b = profiled.get(group, 0.0) / profiled_total
        print(f"{group:24s} {a:8.1%} {b:9.1%} {a - b:+7.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
