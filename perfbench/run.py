"""Sweep benchmark: one paper workload under the four standard policies.

Run from the repository root::

    python3 perfbench/run.py --workload tpch --seed 0 --seconds 50 --trace 0

Every sweep builds the workload cold (``build_workload`` after
``clear_cache``); a full sweep then runs ``standard_cells(WorkloadSpec(W,
full=True, seed=S))`` through ``ExperimentEngine(jobs=1)`` -- the path of
``ecostor experiments --full --workloads W`` -- as a closed loop with one
caller: a cell starts only after the previous one returned.  Sweeps
repeat while another one fits in ``--seconds`` (at least one runs);
later sweeps favour the policies measured least so far (see
:func:`timed_run`); ``wall_s`` and ``setup_s`` are medians, each
``rps`` the records over all of that policy's measured seconds.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes one
untraced sweep, one traced and audited sweep (``perfbench/layers.py``),
and a tracemalloc pass, and prints the per-layer metrics; the spans go to
``.perfbench-out/``.  Every cell's simulated outputs are checked against
``perfbench/references.json`` (or, for an unrecorded seed, against the
first sweep).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import resource
import select
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from outputs import cell_stats, mismatches, sanity_problems, workload_shape  # noqa: E402

#: The timed run's spans are process CPU time.  The benchmark shares a
#: host's cores: wall time also counts the time the hypervisor runs other
#: machines on this one's CPU (steal) and the time other processes hold
#: it, and the program, serial and without I/O, is busy for all of its
#: own.  The traced run keeps wall time, its tracer's clock; run lengths
#: and deadlines are wall time.
clock = time.process_time
wall_clock = time.perf_counter
POLICIES = ("no-power-saving", "proposed", "pdc", "ddr")
OUT_DIR = ROOT / ".perfbench-out"
#: The traced run gives up on the memory pass this long after it started.
MEMORY_PASS_DEADLINE_S = 170.0
#: Cold generations timed per run, at least; ``setup_s`` is their median.
SETUP_SAMPLES = 7


def log(message: str) -> None:
    """Human-readable progress, on standard error."""
    print(message, file=sys.stderr, flush=True)


class Checker:
    """Counts attempted and failed cells and says why each failed.

    A cell fails if it raised or if its simulated statistics differ from
    the references recorded for this seed (audited cells against the
    audited references).  For a seed without references, every sweep
    must equal the run's first untraced sweep; an audited sweep may
    differ from it only in the last bits of a float (``AUDIT_REL_TOL``),
    because the auditor settles enclosures at each checkpoint.
    """

    AUDIT_REL_TOL = 1e-12

    def __init__(self, workload: str, seed: int, references: dict[str, Any]) -> None:
        entry = references.get(str(seed), {}).get(workload, {})
        self.want = {False: entry.get("cells"), True: entry.get("cells_audited")}
        self.first: dict[str, dict[str, float | int]] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, outcome: Any, records: int, audited: bool = False) -> dict[str, float | int] | None:
        """Record one cell's outcome; returns its statistics if it ran."""
        policy = outcome.cell.policy.name
        self.attempted += 1
        if not outcome.ok:
            self._fail(policy, [outcome.error.strip().splitlines()[-1]])
            return None
        stats = cell_stats(outcome.result)
        problems = sanity_problems(stats, records)
        first = self.first.get(policy) if audited else self.first.setdefault(policy, stats)
        want = self.want[audited]
        if want is not None:
            problems += mismatches(stats, want[policy])
        elif audited:
            if first is None:
                problems.append("no untraced cell of this policy to compare with")
            else:
                problems += mismatches(stats, first, self.AUDIT_REL_TOL)
        else:
            problems += mismatches(stats, first)
        if audited and not outcome.result.audit_checks:
            problems.append("the invariant auditor never ran")
        if problems:
            self._fail(policy, problems)
        return stats

    def _fail(self, policy: str, problems: list[str]) -> None:
        self.failed += 1
        log(f"FAIL {policy}: " + "; ".join(problems))


def build_cold(workload: str, seed: int, timer: Callable[[], float] = clock) -> tuple[Any, float]:
    """Generate the workload with an empty cache; returns it and the seconds taken."""
    from repro.experiments.testbed import build_workload, clear_cache

    clear_cache()
    gc.collect()
    start = timer()
    built = build_workload(workload, True, seed)
    return built, timer() - start


def run_sweep(
    workload: str,
    seed: int,
    policies: tuple[str, ...] = POLICIES,
    audit: bool = False,
    on_cell: Callable[[], None] | None = None,
    timer: Callable[[], float] = clock,
) -> tuple[list[Any], list[float]]:
    """The policies' cells, in figure order, through the engine, one after another.

    Returns the outcomes and each cell's host seconds: install, replay,
    assembly and the serialize round trip, up to the engine's progress
    line, by ``timer``.  ``on_cell`` runs at each cell boundary, outside
    the cells' seconds.
    """
    from repro.experiments.parallel import ExperimentEngine, WorkloadSpec, standard_cells

    cells = standard_cells(WorkloadSpec(workload, full=True, seed=seed), policies=policies)
    if audit:
        cells = [dataclasses.replace(cell, audit=True) for cell in cells]
    seconds: list[float] = []
    start = timer()

    def progress(_line: str) -> None:
        nonlocal start
        seconds.append(timer() - start)
        if on_cell is not None:
            on_cell()
        start = timer()

    engine = ExperimentEngine(jobs=1, progress=progress)
    outcomes = engine.run_cells(cells)
    return outcomes, seconds


def check_shape(workload: str, built: Any, spec: dict[str, Any]) -> dict[str, float]:
    """Compare the generated workload's shape with the recorded bands."""
    from repro.config import DEFAULT_CONFIG
    from repro.storage.cache import PAGE_BYTES

    shape = workload_shape(built, DEFAULT_CONFIG.break_even_time, PAGE_BYTES)
    for key, (low, high) in spec["workloads"][workload]["shape_bands"].items():
        if not low <= shape[key] <= high:
            log(f"SHAPE DRIFT {workload}: {key}={shape[key]:.4g} outside [{low}, {high}]")
    log(f"shape {workload}: " + ", ".join(f"{k}={v:.4g}" for k, v in shape.items()))
    return shape


def check_actions(workload: str, stats: dict[str, dict[str, float | int]], spec: dict[str, Any]) -> None:
    """Action records per cell against the recorded bands."""
    bands = spec["workloads"][workload]["action_record_bands"]
    for policy, (low, high) in bands.items():
        count = stats[policy]["action_records"]
        if not low <= count <= high:
            log(f"SHAPE DRIFT {workload}/{policy}: {count} action records outside [{low}, {high}]")


def paper_report(workload: str, stats: dict[str, dict[str, float | int]]) -> None:
    """Each cell's watts and mean response beside the paper's values."""
    from repro.experiments import paper_values

    watts = paper_values.POWER_WATTS[workload]
    response = paper_values.FIG9_RESPONSE_SECONDS if workload == "fileserver" else {}
    log(f"simulated vs paper ({workload}); the model is validated only against "
        "these transcribed values:")
    for policy in POLICIES:
        got = stats[policy]
        paper_w = watts[policy]
        line = (f"  {policy:16s} enclosure {got['enclosure_watts']:8.1f} W "
                f"paper {paper_w:7.1f} W err {got['enclosure_watts'] / paper_w - 1:+.1%}"
                f"  mean response {got['mean_response']:.4f} s")
        if policy in response:
            line += (f" paper {response[policy]:.4f} s "
                     f"err {got['mean_response'] / response[policy] - 1:+.1%}")
        log(line)


def timed_run(args: argparse.Namespace, spec: dict[str, Any], checker: Checker) -> dict[str, Any]:
    """Untraced sweeps; the end-to-end metrics.

    Every sweep follows a cold generation, so ``setup_s`` is sampled all
    through the run, not in one stretch of it.  The first sweep runs all
    four cells.  Then the policies whose cells were measured for less
    host time than the most-measured one repeat, for as long as one more
    cell leaves them no further ahead than it, so short cells are sampled
    more often and every ``rps`` metric rests on about equal time.  When
    none is behind, a full sweep runs again.  Sweeps start while their
    expected length, plus the cold generations ``setup_s`` still lacks,
    fits in ``--seconds``.  ``wall_s`` is the median of the full sweeps.

    ``rps.<policy>`` is the records replayed in all of the policy's
    cells over their summed seconds, not over the median cell: the
    host's speed switches between levels up to 1.75x apart for seconds
    at a time, and a median of five to thirty cells jumps to whichever
    level held most of them, while the total moves with the share of
    time spent at each.
    """
    started = wall_clock()
    gen_s: list[float] = []
    wall_s: list[float] = []
    cell_s: dict[str, list[float]] = {policy: [] for policy in POLICIES}
    records = 0
    while True:
        leader = max(sum(times) for times in cell_s.values())
        behind = tuple(
            p for p in POLICIES
            if cell_s[p] and sum(cell_s[p]) + statistics.mean(cell_s[p]) <= leader
        )
        if wall_s:
            expected = sum(statistics.mean(cell_s[p]) for p in behind or POLICIES)
            generations = max(SETUP_SAMPLES - len(gen_s), 1)
            expected += generations * statistics.median(gen_s)
            if wall_clock() - started + expected > args.seconds:
                break
        built, gen = build_cold(args.workload, args.seed)
        records = len(built.records)
        if not gen_s:
            check_shape(args.workload, built, spec)
        gen_s.append(gen)
        del built
        outcomes, seconds = run_sweep(args.workload, args.seed, behind or POLICIES)
        stats = {}
        for outcome, elapsed in zip(outcomes, seconds):
            policy = outcome.cell.policy.name
            stats[policy] = checker.check(outcome, records)
            cell_s[policy].append(elapsed)
        if not behind:
            if not wall_s and all(stats.values()):
                check_actions(args.workload, stats, spec)
                paper_report(args.workload, stats)
            wall_s.append(gen + sum(seconds))
        del outcomes, stats
        gc.collect()
    while len(gen_s) < SETUP_SAMPLES:
        gen_s.append(build_cold(args.workload, args.seed)[1])
    log(f"{len(wall_s)} full sweep(s), cells per policy "
        + ", ".join(f"{p} {len(cell_s[p])}" for p in POLICIES) + f"; {records} records")
    log("samples (s): " + json.dumps({"wall": wall_s, "setup": gen_s, **cell_s}))
    metrics = {
        "wall_s": (statistics.median(wall_s), "s"),
        "setup_s": (statistics.median(gen_s), "s"),
    }
    for policy in POLICIES:
        metrics[f"rps.{policy}"] = (records * len(cell_s[policy]) / sum(cell_s[policy]), "rec/s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics["ok_frac"] = (1.0 - checker.failed / checker.attempted, "ratio")
    return metrics


def tail(samples: list[float]) -> tuple[float, float, float]:
    """(p50, tail value, tail percentile) of ``samples``.

    The tail is the highest percentile with at least ten samples beyond
    it.  With fewer than twenty samples that percentile would sit below
    the median, and the median stands in (percentile 50).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0.0

    def rank(pct: float) -> float:
        return ordered[min(n - 1, max(0, math.ceil(pct / 100.0 * n) - 1))]

    pct = math.floor(1000.0 * (1.0 - 10.0 / n)) / 10.0
    if pct < 50.0:
        pct = 50.0
    return rank(50.0), rank(pct), pct


def layer_metrics(tracer: Any, policies: list[str]) -> dict[str, tuple[float, str]]:
    """Per-layer self times and counts, summed over the cells."""
    from layers import CELL, HOOK_LAYERS

    self_s: dict[str, float] = {}
    for key, (_, _, total, child) in tracer.agg.items():
        layer = key.split(":", 1)[0]
        self_s[layer] = self_s.get(layer, 0.0) + total - child

    def agg(key: str) -> list[float]:
        return tracer.agg.get(key, [0, 0, 0.0, 0.0])

    contexts = tracer.contexts
    hits = sum(c.controller.cache.lru.hits for c in contexts)
    misses = sum(c.controller.cache.lru.misses for c in contexts)
    out: dict[str, tuple[float, str]] = {
        "experiments.install_s": (self_s.get("experiments.install", 0.0), "s"),
        "experiments.assemble_s": (self_s.get("experiments.assemble", 0.0), "s"),
        "experiments.serialize_s": (self_s.get("experiments.serialize", 0.0), "s"),
        "experiments.deserialize_s": (self_s.get("experiments.deserialize", 0.0), "s"),
        "experiments.engine.self_s": (self_s.get(CELL, 0.0), "s"),
        "trace.result_s": (self_s.get("trace.result", 0.0), "s"),
        "engine.self_s": (self_s.get("engine", 0.0), "s"),
        "storage.controller.self_s": (self_s.get("storage.controller", 0.0), "s"),
        "storage.controller.calls": (sum(c.controller.logical_io_count for c in contexts), "count"),
        "storage.enclosure.self_s": (self_s.get("storage.enclosure", 0.0), "s"),
        "storage.enclosure.calls": (sum(
            agg(f"storage.enclosure:DiskEnclosure.{name}")[1]
            for name in ("submit", "submit_one", "occupy", "background_transfer")), "count"),
        "storage.enclosure.spin_ups": (
            sum(e.spin_up_count for c in contexts for e in c.enclosures), "count"),
        "monitoring.application.self_s": (self_s.get("monitoring.application", 0.0), "s"),
        "monitoring.storage.self_s": (self_s.get("monitoring.storage", 0.0), "s"),
        "storage.cache.self_s": (self_s.get("storage.cache", 0.0), "s"),
        "storage.cache.page_touches": (
            agg("storage.cache:StorageCache.read_hit")[0]
            + agg("storage.cache:WriteDelayPartition.absorb_write")[0], "count"),
        "storage.cache.lru_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "storage.cache.write_absorbs": (
            agg("storage.cache:WriteDelayPartition.absorb_write")[0], "count"),
        "storage.cache.flushes": (
            agg("storage.cache:WriteDelayPartition.flush_all")[0]
            + agg("storage.cache:WriteDelayPartition.flush_item")[0], "count"),
        "storage.migration.self_s": (self_s.get("storage.migration", 0.0), "s"),
        "storage.migration.bytes": (sum(c.controller.migrated_bytes for c in contexts), "B"),
        "devtools.audit.self_s": (self_s.get("devtools.audit", 0.0), "s"),
    }
    for policy in policies:
        layer = HOOK_LAYERS.get(policy)
        if layer is None:
            continue
        samples = [
            (span[3] - span[2]) * 1e6
            for span in tracer.spans
            if span is not None and span[1].startswith(f"{layer}.checkpoint:")
        ]
        p50, tail_us, pct = tail(samples)
        out[f"{layer}.after_io_s"] = (self_s.get(f"{layer}.after_io", 0.0), "s")
        out[f"{layer}.checkpoint_s"] = (self_s.get(f"{layer}.checkpoint", 0.0), "s")
        out[f"{layer}.checkpoints"] = (len(samples), "count")
        out[f"{layer}.checkpoint_p50_us"] = (p50, "us")
        out[f"{layer}.checkpoint_tail_us"] = (tail_us, "us")
        out[f"{layer}.checkpoint_tail_pct"] = (pct, "%")
    out["actions.self_s"] = (self_s.get("actions", 0.0), "s")
    out["actions.apply_calls"] = (agg("actions:ActionExecutor.apply")[0], "count")
    out["actions.records"] = (sum(len(c.executor.log) for c in contexts), "count")
    out["actions.useful_ratio"] = (
        tracer.apply_useful / tracer.apply_actions if tracer.apply_actions else 0.0, "ratio")
    return out


def retained_bytes(built: Any, policy: str) -> int:
    """Bytes the simulation keeps alive after replaying the trace.

    Its own pass, never inside a timed run.  The cell is assembled as
    ``run_cell`` does it (``build_context``, ``Workload.install``,
    ``TraceReplayer.run``); tracemalloc runs from after the install to
    the end of the replay, and what is still allocated then, after a
    collection and with the context alive, is what the replay retained:
    response samples, per-item books, the action log.
    """
    from repro.config import DEFAULT_CONFIG
    from repro.experiments.parallel import PolicySpec
    from repro.simulation import build_context
    from repro.trace.replay import TraceReplayer

    gc.collect()
    context = build_context(DEFAULT_CONFIG, built.enclosure_count)
    built.install(context)
    replayer = TraceReplayer(context, PolicySpec(policy).build())
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = replayer.run(built.records, duration=built.duration)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    del result, replayer, context
    return retained


def memory_pass(workload: str, seed: int) -> None:
    """Print each policy's retained bytes per record, one line per pass.

    The pass repeats until the process is killed or its parent is gone.
    """
    parent = os.getppid()
    built, _ = build_cold(workload, seed)
    while os.getppid() == parent:
        print(json.dumps({
            policy: retained_bytes(built, policy) / len(built.records) for policy in POLICIES
        }), flush=True)


def traced_run(args: argparse.Namespace, spec: dict[str, Any], checker: Checker) -> dict[str, Any]:
    """Untraced sweep, traced and audited sweep, memory pass; per-layer metrics."""
    from layers import Tracer

    # The memory pass runs in its own process, beside both sweeps: under
    # tracemalloc it is several times slower than the cells it replays,
    # and run after them it would not fit one run.  The child repeats the
    # pass until both sweeps are done and only then is killed, so it
    # shares the machine with both sweeps for their whole length and
    # their ratio stays fair.  Its first completed pass is the result.
    memory = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--memory-pass"],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
    )
    started = wall_clock()
    tracer = Tracer()
    try:
        built, gen = build_cold(args.workload, args.seed, wall_clock)
        records = len(built.records)
        check_shape(args.workload, built, spec)
        del built
        outcomes, seconds = run_sweep(args.workload, args.seed, timer=wall_clock)
        untraced_wall = gen + sum(seconds)
        for outcome in outcomes:
            checker.check(outcome, records)
        del outcomes
        gc.collect()

        tracer.install()
        try:
            built, traced_gen = build_cold(args.workload, args.seed, wall_clock)
            del built
            tracer.open_cell()
            outcomes, seconds = run_sweep(
                args.workload, args.seed, audit=True,
                on_cell=lambda: tracer.next_cell(len(POLICIES)), timer=wall_clock,
            )
        finally:
            tracer.uninstall()
        if memory.poll() is not None:
            raise RuntimeError(f"memory pass exited with {memory.returncode} during the sweeps")
        ready, _, _ = select.select(
            [memory.stdout], [], [], max(1.0, MEMORY_PASS_DEADLINE_S - (wall_clock() - started)))
        if not ready:
            raise RuntimeError(f"memory pass not done {MEMORY_PASS_DEADLINE_S:.0f} s after the start")
        retained = memory.stdout.readline()
        if not retained:
            raise RuntimeError(f"memory pass exited with {memory.wait()} before a result")
    finally:
        if memory.poll() is None:
            memory.kill()
        memory.wait()
    traced_wall = traced_gen + sum(seconds)
    policies = [outcome.cell.policy.name for outcome in outcomes]
    for outcome in outcomes:
        checker.check(outcome, records, audited=True)
    del outcomes
    gc.collect()

    metrics = {"workloads.gen_s": (traced_gen, "s")}
    metrics.update(layer_metrics(tracer, policies))
    audit_s = tracer.agg["devtools.audit:InvariantAuditor.check"][2]
    metrics["trace.overhead_frac"] = ((traced_wall - audit_s) / untraced_wall - 1.0, "ratio")
    log(f"untraced {untraced_wall:.2f} s, traced {traced_wall:.2f} s "
        f"(auditor {audit_s:.2f} s)")

    for policy, per_record in json.loads(retained).items():
        metrics[f"mem.retained_b_per_rec.{policy}"] = (per_record, "B/rec")

    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write_spans(path, {
        "workload": args.workload, "seed": args.seed, "policies": policies,
        "clock": "time.perf_counter", "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
    })
    log(f"spans written to {path}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fileserver", "tpcc", "tpch"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--memory-pass", action="store_true",
                        help="only print the retained bytes per record, pass after pass "
                             "until killed (the traced run's helper)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        log(f"no program source at {src}: run from a checkout of the repository")
        return 2
    sys.path.insert(0, str(src))
    if args.memory_pass:
        memory_pass(args.workload, args.seed)
        return 0
    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    references = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    checker = Checker(args.workload, args.seed, references)
    if checker.want[False] is None:
        log(f"no references for seed {args.seed}: checking that sweeps agree")

    run = traced_run if args.trace else timed_run
    metrics = run(args, spec, checker)
    for name, (value, unit) in metrics.items():
        log(f"  {name:40s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
