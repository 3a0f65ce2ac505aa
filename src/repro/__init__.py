"""repro — Energy-efficient storage management (ICDE 2012 reproduction).

A faithful, simulator-backed reproduction of Nishikawa, Nakano &
Kitsuregawa, *Energy Efficient Storage Management Cooperated with Large
Data Intensive Applications* (ICDE 2012): an application-collaborative
storage power-management system that classifies each data item's logical
I/O into four patterns (P0-P3) every monitoring period and drives data
placement, preloading, and write delay accordingly.

Quick start::

    from repro import (
        DEFAULT_CONFIG,
        EnergyEfficientPolicy,
        build_context,
        build_fileserver_workload,
    )
    from repro.trace.replay import TraceReplayer

    workload = build_fileserver_workload(duration=3600.0)
    context = build_context(DEFAULT_CONFIG, workload.enclosure_count)
    workload.install(context)
    result = TraceReplayer(context, EnergyEfficientPolicy()).run(
        workload.columnar(), duration=workload.duration
    )
    print(result.power.enclosure_watts, result.mean_response)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured results.
"""

from repro.baselines import (
    DDRPolicy,
    NoPowerSavingPolicy,
    PDCPolicy,
    PowerPolicy,
)
from repro.config import (
    DEFAULT_CONFIG,
    DEFAULT_SCALE,
    PAPER_CONFIG,
    EcoStorConfig,
    SimulationScale,
)
from repro.core.manager import EnergyEfficientPolicy
from repro.core.patterns import IOPattern
from repro.simulation import SimulationContext, build_context
from repro.workloads import (
    build_dss_workload,
    build_fileserver_workload,
    build_oltp_workload,
)

__version__ = "1.0.0"

__all__ = [
    "DDRPolicy",
    "DEFAULT_CONFIG",
    "DEFAULT_SCALE",
    "EcoStorConfig",
    "EnergyEfficientPolicy",
    "IOPattern",
    "NoPowerSavingPolicy",
    "PAPER_CONFIG",
    "PDCPolicy",
    "PowerPolicy",
    "SimulationContext",
    "SimulationScale",
    "build_context",
    "build_dss_workload",
    "build_fileserver_workload",
    "build_oltp_workload",
    "__version__",
]
