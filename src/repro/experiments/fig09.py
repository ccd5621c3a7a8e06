"""Figure 9: the anatomy of uncooperative swapping.

Sysbench iteratively reads a 200 MB file inside a guest that believes
it has 512 MB but actually has 100 MB.  Four panels per iteration:

(a) runtime -- baseline is U-shaped (stale reads dominate iteration 1,
    decayed sequentiality grows the tail), VSwapper stays flat;
(b) host-context page faults -- stale reads in iteration 1, false page
    anonymity (QEMU code refaults) afterwards;
(c) guest-context page faults -- grows with decayed sequentiality;
(d) sectors written to the host swap area -- silent swap writes,
    roughly constant per iteration for the baseline.

Figure 3 is this experiment's first iteration, so both figures share
one cell runner: each declares a :class:`~repro.exec.spec.Sweep` of
one cell per configuration and assembles its table from the cells.
"""

from __future__ import annotations

from typing import Mapping, Sequence

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
from repro.workloads.sysbench import SysbenchFileRead

#: Figure 9 plots baseline, vswapper, and balloon+baseline.
FIG09_CONFIGS = (
    ConfigName.BASELINE,
    ConfigName.VSWAPPER,
    ConfigName.BALLOON_BASELINE,
)

#: Figure 3 adds the combined configuration.
FIG03_CONFIGS = (
    ConfigName.BASELINE,
    ConfigName.BALLOON_BASELINE,
    ConfigName.VSWAPPER,
    ConfigName.BALLOON_VSWAPPER,
)


def build_fig09_sweep(*, scale: int = 1, iterations: int = 8,
                      config_names: Sequence[ConfigName] = FIG09_CONFIGS,
                      ) -> Sweep:
    """Declare Figure 9's grid: one cell per configuration."""
    return sweep_from_configs(
        "fig09", config_names, scale=scale,
        params={"iterations": iterations})


def build_fig03_sweep(*, scale: int = 1) -> Sweep:
    """Declare Figure 3's grid: four configs, one iteration each."""
    return sweep_from_configs(
        "fig09", FIG03_CONFIGS, scale=scale,
        params={"iterations": 1})


def fig09_cell(spec: CellSpec) -> RunResult:
    """Run one (configuration, iterations) cell of Figure 9/Figure 3."""
    scale = spec.scale
    experiment = SingleVmExperiment(
        actual_mib=100 / scale,
        cluster_config=ClusterConfig(seed=spec.seed),
        guest_config=scaled_guest_config(512, scale),
        files=[("sysbench.dat", mib_pages(200 / scale))],
    )
    config = standard_configs([ConfigName(spec.config)])[0]
    workload = SysbenchFileRead(
        file_pages=mib_pages(200 / scale),
        iterations=spec.params["iterations"])
    return experiment.run(config, workload)


def assemble_fig09(sweep: Sweep,
                   results: Mapping[str, RunResult]) -> FigureResult:
    """Build Figure 9's four panels from executed cells."""
    scale = sweep.cells[0].scale
    iterations = sweep.cells[0].params["iterations"]
    series: dict = {}
    for cell in sweep.cells:
        result = results[cell.cell_id]
        series[cell.config] = {
            "runtime": result.iteration_durations(),
            "host_faults": result.iteration_counter_deltas(
                "host_context_faults"),
            "guest_faults": result.iteration_counter_deltas(
                "guest_context_faults"),
            "swap_sectors_written": result.iteration_counter_deltas(
                "swap_sectors_written"),
            "stale_reads": result.iteration_counter_deltas("stale_reads"),
            "status": result.status,
        }

    table = Table(
        f"Figure 9 (scale=1/{scale}): sysbench iterative 200MB read, "
        f"100MB actual",
        ["config", "iter", "runtime[s]", "host faults", "guest faults",
         "swap sectors written"],
    )
    for config, panels in series.items():
        completed = len(panels["runtime"])
        for i in range(completed):
            table.add_row(
                config, i + 1,
                round(panels["runtime"][i], 2),
                panels["host_faults"][i],
                panels["guest_faults"][i],
                panels["swap_sectors_written"][i],
            )
        if completed < iterations:
            # A fault-induced crash cut the run short (see RunResult
            # .crash_reason); render the missing tail as one marker row.
            table.add_row(config, f"{completed + 1}+", panels["status"],
                          "-", "-", "-")
    return FigureResult("fig09", series, table.render())


def assemble_fig03(sweep: Sweep,
                   results: Mapping[str, RunResult]) -> FigureResult:
    """Build Figure 3's single-bar-per-config table from cells."""
    scale = sweep.cells[0].scale
    series: dict = {}
    for cell in sweep.cells:
        durations = results[cell.cell_id].iteration_durations()
        series[cell.config] = durations[0] if durations else None

    table = Table(
        f"Figure 3 (scale=1/{scale}): time to sequentially read a 200MB "
        f"file (512MB believed, 100MB actual)",
        ["config", "runtime [s]"],
    )
    for config, runtime in series.items():
        table.add_row(config, "crashed" if runtime is None
                      else round(runtime, 2))
    return FigureResult("fig03", series, table.render())
