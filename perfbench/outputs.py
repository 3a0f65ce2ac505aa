"""Simulated outputs of a cell, and the shape of a generated workload.

Both are computed from outside the program: :func:`cell_stats` reads the
public fields of an :class:`~repro.experiments.runner.ExperimentResult`,
and :func:`workload_shape` reads only the generated trace.  Neither
touches host time, so both repeat exactly for a given seed.
"""

from __future__ import annotations

import math
from typing import Any

#: Simulated statistics compared float for float against the references.
STAT_KEYS = (
    "enclosure_watts",
    "controller_watts",
    "mean_response",
    "mean_read_response",
    "migrated_bytes",
    "determinations",
    "io_count",
    "cache_hit_ratio",
    "spin_ups",
    "action_records",
)


def cell_stats(result: Any) -> dict[str, float | int]:
    """The simulated statistics of one finished cell."""
    replay = result.replay
    return {
        "enclosure_watts": result.enclosure_watts,
        "controller_watts": result.controller_watts,
        "mean_response": result.mean_response,
        "mean_read_response": result.mean_read_response,
        "migrated_bytes": result.migrated_bytes,
        "determinations": result.determinations,
        "io_count": replay.io_count,
        "cache_hit_ratio": replay.cache_hit_ratio,
        "spin_ups": replay.spin_up_count,
        "action_records": len(replay.actions),
    }


def sanity_problems(stats: dict[str, float | int], records: int) -> list[str]:
    """Invariants any correct cell meets, whatever the seed."""
    problems = []
    for key in STAT_KEYS:
        value = stats[key]
        if not math.isfinite(value) or value < 0:
            problems.append(f"{key}={value!r} is not a finite non-negative number")
    if stats["io_count"] != records:
        problems.append(f"io_count={stats['io_count']} but the trace has {records} records")
    if not 0.0 <= stats["cache_hit_ratio"] <= 1.0:
        problems.append(f"cache_hit_ratio={stats['cache_hit_ratio']!r} outside [0, 1]")
    if stats["enclosure_watts"] <= 0:
        problems.append("enclosure_watts is not positive")
    return problems


def mismatches(
    got: dict[str, float | int], want: dict[str, float | int], rel_tol: float = 0.0
) -> list[str]:
    """Every statistic that differs from ``want``.

    Exact by default.  With ``rel_tol`` floats may differ by that share;
    integers must still be equal.
    """
    return [
        f"{key}: got {got[key]!r}, want {want[key]!r}"
        for key in STAT_KEYS
        if got[key] != want[key]
        and not (rel_tol and isinstance(want[key], float)
                 and math.isclose(got[key], want[key], rel_tol=rel_tol))
    ]


def workload_shape(workload: Any, break_even: float, page_bytes: int) -> dict[str, float]:
    """What a generated workload stresses, read from its trace alone.

    ``gap_share`` is the share of the virtual span spent in array-wide
    gaps (no record on any enclosure) longer than ``break_even``,
    counting the lead-in before the first record and the tail after the
    last one.
    """
    records = workload.records
    count = len(records)
    span = workload.duration
    reads = 0
    pages = 0
    gap_total = 0.0
    previous = 0.0
    for record in records:
        if record.is_read:
            reads += 1
        first = record.offset // page_bytes
        last = (record.offset + record.size - 1) // page_bytes
        pages += last - first + 1
        gap = record.timestamp - previous
        if gap > break_even:
            gap_total += gap
        previous = record.timestamp
    tail = span - previous
    if tail > break_even:
        gap_total += tail
    return {
        "records": count,
        "span_h": span / 3600.0,
        "read_share": reads / count,
        "pages_per_record": pages / count,
        "gap_share": gap_total / span,
    }
