"""Record the reference outputs the benchmark checks.

Run from the repository root::

    python3 perfbench/record.py --seeds 0-15

For every seed and workload this builds the full workload, replays the
four standard cells through :class:`ExperimentEngine` (the path the
benchmark times) and writes each cell's simulated statistics to
``perfbench/references.json``.  ``--audit`` records the same cells with
the invariant auditor armed, as the traced run replays them: the
auditor settles enclosures at every checkpoint, which can move the last
bits of a float statistic.  Re-record only for
a change that is meant to alter simulated results, and say so in the
change's description.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from outputs import cell_stats  # noqa: E402

WORKLOADS = ("fileserver", "tpcc", "tpch")
REFERENCES = HERE / "references.json"


def parse_seeds(text: str) -> list[int]:
    """``"0-3,7"`` -> ``[0, 1, 2, 3, 7]``."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def record(workload: str, seed: int, audit: bool) -> dict:
    """Reference entry for one (workload, seed), audited cells or not."""
    from repro.experiments.parallel import ExperimentEngine, WorkloadSpec, standard_cells

    cells = standard_cells(WorkloadSpec(workload, full=True, seed=seed))
    if audit:
        cells = [dataclasses.replace(cell, audit=True) for cell in cells]
    outcomes = ExperimentEngine(jobs=1).run_cells(cells)
    stats = {o.cell.policy.name: cell_stats(o.require()) for o in outcomes}
    return {"cells_audited" if audit else "cells": stats}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--audit", action="store_true",
                        help="record the cells with the invariant auditor armed")
    args = parser.parse_args()
    from repro.experiments.testbed import clear_cache

    data = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    for seed in parse_seeds(args.seeds):
        for workload in args.workloads.split(","):
            entry = record(workload, seed, args.audit)
            data.setdefault(str(seed), {}).setdefault(workload, {}).update(entry)
            clear_cache()
            print(f"seed {seed} {workload} recorded", flush=True)
            REFERENCES.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
