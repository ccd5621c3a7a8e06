"""Figure 12: Kernbench -- kernel compilation under memory pressure.

The paper reproduces a VMware white-paper experiment: building Linux in
a 512 MB guest granted only 192 MB slows baseline swapping by ~15 % and
ballooning by ~4-5 %.  Panel (b) counts the Preventer's remaps: the
compile farm's process churn recycles host-swapped frames, and each
whole-page overwrite the Preventer catches saves a false read (up to
~80 K on the paper's testbed).

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
from repro.workloads.kernbench import Kernbench

FIG12_CONFIGS = (
    ConfigName.BASELINE,
    ConfigName.MAPPER,
    ConfigName.VSWAPPER,
    ConfigName.BALLOON_BASELINE,
)

#: The paper's X axis (MiB of actual memory), 512 down to 192.
DEFAULT_MEMORY_SWEEP = (512, 448, 384, 320, 256, 192)


def make_kernbench(scale: int) -> Kernbench:
    """A Kernbench instance sized for ``scale``."""
    return Kernbench(
        compile_units=max(8, 2400 // scale),
        unit_working_set_pages=mib_pages(8 / scale),
        source_pages=mib_pages(480 / scale),
        min_resident_pages=mib_pages(96 / scale),
    )


def build_fig12_sweep(
    *,
    scale: int = 1,
    memory_sweep_mib: Sequence[int] = DEFAULT_MEMORY_SWEEP,
    config_names: Sequence[ConfigName] = FIG12_CONFIGS,
) -> Sweep:
    """Declare the grid: configuration x actual-memory grant."""
    cells = tuple(
        CellSpec(
            experiment_id="fig12",
            cell_id=f"{spec.name.value}@{actual_mib}MiB",
            scale=scale,
            config=spec.name.value,
            params={"actual_mib": actual_mib},
        )
        for spec in standard_configs(config_names)
        for actual_mib in memory_sweep_mib)
    return Sweep("fig12", cells)


def fig12_cell(spec: CellSpec) -> RunResult:
    """Run Kernbench under one (configuration, grant) cell."""
    scale = spec.scale
    actual_mib = spec.params["actual_mib"]
    workload_probe = make_kernbench(scale)
    experiment = SingleVmExperiment(
        actual_mib=actual_mib / scale,
        cluster_config=ClusterConfig(seed=spec.seed),
        guest_config=scaled_guest_config(512, scale),
        files=[
            ("kernel-src", workload_probe.source_pages),
            ("kernel-obj", workload_probe.object_file_pages()),
        ],
    )
    config = standard_configs([ConfigName(spec.config)])[0]
    return experiment.run(config, make_kernbench(scale))


def assemble_fig12(sweep: Sweep,
                   results: Mapping[str, RunResult]) -> FigureResult:
    """Build Figure 12's panels (a) and (b) from cells."""
    scale = sweep.cells[0].scale
    series: dict = {}
    for cell in sweep.cells:
        result = results[cell.cell_id]
        series.setdefault(cell.config, {})[str(cell.params["actual_mib"])] = {
            "runtime": result.runtime,
            "crashed": result.crashed,
            "preventer_remaps": result.counters.get("preventer_remaps"),
            "false_reads": result.counters.get("false_reads"),
            "guest_faults": result.counters.get("guest_context_faults"),
        }

    table = Table(
        f"Figure 12 (scale=1/{scale}): Kernbench vs actual memory "
        f"(guest believes 512MB)",
        ["config", "memory [MiB]", "runtime [s]", "preventer remaps",
         "false reads"],
    )
    for config, by_memory in series.items():
        for actual_mib, row in by_memory.items():
            if row["crashed"]:
                table.add_row(config, actual_mib, "killed (OOM)", "-", "-")
            else:
                table.add_row(config, actual_mib, round(row["runtime"], 1),
                              row["preventer_remaps"], row["false_reads"])
    return FigureResult("fig12", series, table.render())
