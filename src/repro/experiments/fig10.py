"""Figure 10: the effect of false swap reads.

After the Sysbench read phase, a forked process allocates and
sequentially accesses 200 MB.  Its freshly allocated pages are recycled
guest frames, mostly swapped out by the host, so every demand-zero
allocation overwrites a swapped page.  The figure contrasts runtime and
disk operations for baseline, vswapper-without-preventer ("mapper"),
full vswapper, and balloon+baseline (which crashes: over-ballooning).
"""

from __future__ import annotations

from typing import Mapping

from repro.config import ClusterConfig
from repro.exec.spec import CellSpec, Sweep, sweep_from_configs
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
from repro.workloads.alloctouch import SysbenchThenAlloc

FIG10_CONFIGS = (
    ConfigName.BASELINE,
    ConfigName.MAPPER,       # the paper labels this "vswapper w/o preventer"
    ConfigName.VSWAPPER,
    ConfigName.BALLOON_BASELINE,
)


def build_fig10_sweep(*, scale: int = 1) -> Sweep:
    """Declare Figure 10's grid: one cell per configuration."""
    return sweep_from_configs(
        "fig10", FIG10_CONFIGS, scale=scale)


def fig10_cell(spec: CellSpec) -> RunResult:
    """Run the sysbench-then-alloc workload under one configuration."""
    scale = spec.scale
    experiment = SingleVmExperiment(
        actual_mib=100 / scale,
        cluster_config=ClusterConfig(seed=spec.seed),
        guest_config=scaled_guest_config(512, scale),
        files=[("sysbench.dat", mib_pages(200 / scale))],
    )
    config = standard_configs([ConfigName(spec.config)])[0]
    workload = SysbenchThenAlloc(
        file_pages=mib_pages(200 / scale),
        alloc_pages=mib_pages(200 / scale),
    )
    return experiment.run(config, workload)


def _alloc_phase_row(result: RunResult) -> dict:
    if not result.crashed:
        starts = [p for p in result.phases if p.name == "alloc-start"]
        ends = [p for p in result.phases if p.name == "alloc-end"]
        if starts and ends:
            start, end = starts[0], ends[0]
            return {
                "runtime": end.time - start.time,
                "disk_ops": (end.counters.get("disk_ops", 0)
                             - start.counters.get("disk_ops", 0)),
                "false_reads": (end.counters.get("false_reads", 0)
                                - start.counters.get("false_reads", 0)),
                "preventer_remaps": (
                    end.counters.get("preventer_remaps", 0)
                    - start.counters.get("preventer_remaps", 0)),
                "crashed": False,
            }
    # Either the run crashed outright or the allocator OOM-crashed
    # mid-phase (no alloc-end mark).
    return {
        "runtime": None, "disk_ops": None, "crashed": True,
        "false_reads": None, "preventer_remaps": None,
    }


def assemble_fig10(sweep: Sweep,
                   results: Mapping[str, RunResult]) -> FigureResult:
    """Build Figure 10's alloc-phase table from cells."""
    scale = sweep.cells[0].scale
    series: dict = {
        cell.config: _alloc_phase_row(results[cell.cell_id])
        for cell in sweep.cells
    }

    table = Table(
        f"Figure 10 (scale=1/{scale}): allocate-and-access 200MB after "
        f"the file-read phase",
        ["config", "runtime [s]", "disk ops", "false reads",
         "preventer remaps"],
    )
    for config, row in series.items():
        if row["crashed"]:
            table.add_row(config, "crashed", "-", "-", "-")
        else:
            table.add_row(config, round(row["runtime"], 2),
                          row["disk_ops"], row["false_reads"],
                          row["preventer_remaps"])
    return FigureResult("fig10", series, table.render())
