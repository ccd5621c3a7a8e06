"""Chaos run: the Figure 3 workload under deterministic fault injection.

Every future perf PR gets a standing suite to run against: the five
standard configurations execute the paper's first-iteration sysbench
read while the fault plan injects disk errors, latency spikes, torn
writes, swap-read failures, slot corruption, and forced mapper
invalidations.  Each cell must end in exactly one of three states --
*ok* (every fault retried away), *degraded* (a circuit breaker fell
back to baseline swapping, run still finished), or *crashed* (a typed
ReproError reported at the runner boundary) -- and no cell may ever
observe stale page content.

The full fault plan travels inside each :class:`~repro.exec.spec
.CellSpec` (``spec.faults``), so a chaos cell replayed from the result
store or in a worker process sees the exact same injections.
"""

from __future__ import annotations

from repro.config import ClusterConfig, FaultConfig
from repro.exec.spec import CellSpec, Sweep, fault_params, faults_from_params
from repro.experiments.runner import (
    ConfigName,
    FigureResult,
    RunResult,
    SingleVmExperiment,
    scaled_guest_config,
    standard_configs,
)
from repro.metrics.report import Table
from repro.units import mib_pages
from repro.workloads.sysbench import SysbenchFileRead

#: Fault counters worth surfacing per cell in the chaos table.
FAULT_COUNTERS = (
    "disk_transient_errors",
    "disk_retries",
    "disk_latency_spikes",
    "disk_torn_writes",
    "swap_read_retries",
    "swap_slot_corruptions",
    "mapper_forced_invalidations",
    "mapper_breaker_trips",
)


def build_chaos_sweep(*, scale: int = 1, seed: int = 1,
                      fault_config: FaultConfig | None = None) -> Sweep:
    """Declare the chaos grid: five configs under one fault plan."""
    faults = fault_config if fault_config is not None else FaultConfig.chaos()
    cells = tuple(
        CellSpec(
            experiment_id="chaos",
            cell_id=spec.name.value,
            scale=scale,
            config=spec.name.value,
            seed=seed,
            faults=fault_params(faults),
        )
        for spec in standard_configs())
    return Sweep("chaos", cells)


def chaos_cell(spec: CellSpec) -> RunResult:
    """Run the Fig. 3 workload under one config and the fault plan."""
    scale = spec.scale
    experiment = SingleVmExperiment(
        actual_mib=100 / scale,
        guest_config=scaled_guest_config(512, scale),
        cluster_config=ClusterConfig(
            seed=spec.seed, faults=faults_from_params(spec.faults)),
        files=[("sysbench.dat", mib_pages(200 / scale))],
    )
    config = standard_configs([ConfigName(spec.config)])[0]
    workload = SysbenchFileRead(
        file_pages=mib_pages(200 / scale), iterations=1)
    return experiment.run(config, workload)


def assemble_chaos(sweep: Sweep,
                   results: dict[str, RunResult]) -> FigureResult:
    """Build the chaos status table from cells."""
    scale = sweep.cells[0].scale
    seed = sweep.cells[0].seed
    series: dict = {}
    for cell in sweep.cells:
        result = results[cell.cell_id]
        injected = {name: result.counters.get(name, 0)
                    for name in FAULT_COUNTERS}
        series[cell.config] = {
            "status": result.status,
            "runtime": result.runtime,
            "crash_reason": result.crash_reason,
            "faults": injected,
        }

    table = Table(
        f"Chaos run (scale=1/{scale}, seed={seed}): Fig. 3 workload under "
        f"fault injection",
        ["config", "status", "runtime [s]", "retries", "breaker trips",
         "detail"],
    )
    for config, cell in series.items():
        faults_seen = cell["faults"]
        retries = (faults_seen["disk_retries"]
                   + faults_seen["swap_read_retries"])
        runtime = cell["runtime"]
        table.add_row(
            config, cell["status"],
            "-" if runtime is None else round(runtime, 2),
            retries,
            faults_seen["mapper_breaker_trips"],
            cell["crash_reason"] or "",
        )
    return FigureResult("chaos", series, table.render())
