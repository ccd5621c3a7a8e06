"""Figures 5 and 11: pbzip2 under a shrinking memory grant.

One 8-thread compression job inside a guest that believes it has
512 MB, granted 512 down to 128 MB of actual memory.  Figure 5 plots
runtime (ballooning wins while it survives, but the guest's OOM killer
terminates the job once the grant drops below the workload's needs);
Figure 11 plots disk operations, written sectors (VSwapper eliminates
the write component), and reclaim pages-scanned (the Mapper roughly
doubles scan lengths at low pressure).

Both CLI ids (``fig5``, ``fig11``) declare the *same* sweep under the
harness id ``fig05+fig11``, so their cells share cache entries: with a
result store, regenerating one makes the other free.

Series are keyed ``series[config][str(actual_mib)]`` (JSON-safe).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.config import ClusterConfig
from repro.exec.spec import CellSpec, Sweep
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
from repro.workloads.pbzip import PbzipCompress

FIG05_CONFIGS = (
    ConfigName.BASELINE,
    ConfigName.MAPPER,
    ConfigName.VSWAPPER,
    ConfigName.BALLOON_BASELINE,
)

#: The paper's Figure 5/11 X axis (MiB of actual memory).
DEFAULT_MEMORY_SWEEP = (512, 448, 384, 320, 256, 240, 192, 128)


def build_fig05_fig11_sweep(
    *,
    scale: int = 1,
    memory_sweep_mib: Sequence[int] = DEFAULT_MEMORY_SWEEP,
    config_names: Sequence[ConfigName] = FIG05_CONFIGS,
) -> Sweep:
    """Declare the grid: configuration x actual-memory grant."""
    cells = tuple(
        CellSpec(
            experiment_id="fig05+fig11",
            cell_id=f"{spec.name.value}@{actual_mib}MiB",
            scale=scale,
            config=spec.name.value,
            params={"actual_mib": actual_mib},
        )
        for spec in standard_configs(config_names)
        for actual_mib in memory_sweep_mib)
    return Sweep("fig05+fig11", cells)


def fig05_fig11_cell(spec: CellSpec) -> RunResult:
    """Run pbzip2 under one (configuration, grant) cell."""
    scale = spec.scale
    actual_mib = spec.params["actual_mib"]
    experiment = SingleVmExperiment(
        actual_mib=actual_mib / scale,
        cluster_config=ClusterConfig(seed=spec.seed),
        guest_config=scaled_guest_config(512, scale),
        files=[
            ("pbzip-input", mib_pages(500 / scale)),
            ("pbzip-output", mib_pages(140 / scale)),
        ],
    )
    config = standard_configs([ConfigName(spec.config)])[0]
    workload = PbzipCompress(
        input_pages=mib_pages(500 / scale),
        min_resident_pages=mib_pages(220 / scale),
    )
    return experiment.run(config, workload)


def assemble_fig05_fig11(sweep: Sweep,
                         results: Mapping[str, RunResult]) -> FigureResult:
    """Build the shared Figure 5 + Figure 11 table from cells."""
    scale = sweep.cells[0].scale
    series: dict = {}
    for cell in sweep.cells:
        result = results[cell.cell_id]
        series.setdefault(cell.config, {})[str(cell.params["actual_mib"])] = {
            "runtime": result.runtime,
            "crashed": result.crashed,
            "disk_ops": result.counters.get("disk_ops"),
            "swap_sectors_written": result.counters.get(
                "swap_sectors_written"),
            "pages_scanned": result.counters.get("pages_scanned"),
            "false_reads": result.counters.get("false_reads"),
            "preventer_remaps": result.counters.get("preventer_remaps"),
        }

    table = Table(
        f"Figures 5 and 11 (scale=1/{scale}): pbzip2 vs actual memory "
        f"(guest believes 512MB)",
        ["config", "memory [MiB]", "runtime [s]", "disk ops",
         "swap sectors written", "pages scanned"],
    )
    for config, by_memory in series.items():
        for actual_mib, row in by_memory.items():
            if row["crashed"]:
                table.add_row(config, actual_mib, "killed (OOM)",
                              "-", "-", "-")
            else:
                table.add_row(config, actual_mib, round(row["runtime"], 1),
                              row["disk_ops"], row["swap_sectors_written"],
                              row["pages_scanned"])
    return FigureResult("fig05+fig11", series, table.render())
