"""Registry mapping experiment ids to their sweep, cell runner, and
assembler -- and the one harness that joins them.

The CLI and the benchmark suite both resolve experiments through this
table, so the set of reproducible results lives in exactly one place.

Two tables live here:

* :data:`EXPERIMENTS` -- CLI experiment id -> :class:`ExperimentDef`
  (description, harness id, sweep builder, cell runner, assembler).
  Several CLI ids share a harness: ``fig5``/``fig11`` regenerate from
  one pbzip2 sweep, ``fig4`` is ``fig14``'s ten-guest column, ``fig3``
  is ``fig9``'s first iteration.
* :data:`CELL_RUNNERS` -- sweep harness id -> picklable cell runner,
  derived from the rows.  The executor resolves runners here (by
  ``CellSpec.experiment_id``) so worker processes rebuild each cell
  from its spec alone.

:func:`run_experiment` is the only glue: build the sweep, run it,
assemble the figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ExperimentError
from repro.exec.executor import finish_figure, run_sweep
from repro.exec.spec import CellSpec, Sweep
from repro.experiments import (
    ablations,
    chaos,
    cluster,
    cluster_chaos,
    dynamic,
    fig05_11,
    fig09,
    fig10,
    fig12,
    fig13_15,
    migration,
    sec53,
    sec54,
    swaptier,
    table1,
    table2,
)
from repro.experiments.runner import FigureResult, RunResult


@dataclass(frozen=True)
class ExperimentDef:
    """One CLI-visible experiment: metadata plus its three pieces."""

    experiment_id: str
    description: str
    #: ``CellSpec.experiment_id`` of the sweep's cells; None for
    #: cell-less static results (Table 1).
    harness_id: str | None
    #: Declares the experiment's cells (``scale`` keyword plus the
    #: experiment's own sweep parameters).
    build_sweep: Callable[..., Sweep] | None
    cell: Callable[[CellSpec], RunResult] | None
    #: ``assemble(sweep, results)``; ``assemble()`` when cell-less.
    assemble: Callable[..., FigureResult]


#: Experiment id -> definition.
EXPERIMENTS: dict[str, ExperimentDef] = {d.experiment_id: d for d in (
    ExperimentDef(
        "fig3", "first-iteration sysbench read, four configs",
        "fig09", fig09.build_fig03_sweep, fig09.fig09_cell,
        fig09.assemble_fig03),
    ExperimentDef(
        "fig4", "ten phased MapReduce guests, average completion time",
        "dynamic", dynamic.build_fig04_sweep, dynamic.dynamic_cell,
        dynamic.assemble_fig04),
    ExperimentDef(
        "fig5", "pbzip2 runtime vs shrinking memory grant",
        "fig05+fig11", fig05_11.build_fig05_fig11_sweep,
        fig05_11.fig05_fig11_cell, fig05_11.assemble_fig05_fig11),
    ExperimentDef(
        "fig9", "anatomy of uncooperative swapping, per iteration",
        "fig09", fig09.build_fig09_sweep, fig09.fig09_cell,
        fig09.assemble_fig09),
    ExperimentDef(
        "fig10", "false swap reads: allocate-after-read phase",
        "fig10", fig10.build_fig10_sweep, fig10.fig10_cell,
        fig10.assemble_fig10),
    ExperimentDef(
        "fig11", "pbzip2 disk traffic vs shrinking memory grant",
        "fig05+fig11", fig05_11.build_fig05_fig11_sweep,
        fig05_11.fig05_fig11_cell, fig05_11.assemble_fig05_fig11),
    ExperimentDef(
        "fig12", "Kernbench under memory pressure, preventer remaps",
        "fig12", fig12.build_fig12_sweep, fig12.fig12_cell,
        fig12.assemble_fig12),
    ExperimentDef(
        "fig13", "Eclipse (DaCapo) runtime vs memory limit",
        "fig13", fig13_15.build_fig13_sweep, fig13_15.fig13_cell,
        fig13_15.assemble_fig13),
    ExperimentDef(
        "fig14", "phased MapReduce guests vs guest count",
        "dynamic", dynamic.build_fig14_sweep, dynamic.dynamic_cell,
        dynamic.assemble_fig14),
    ExperimentDef(
        "fig15", "mapper-tracked pages vs guest page cache over time",
        "fig15", fig13_15.build_fig15_sweep, fig13_15.fig15_cell,
        fig13_15.assemble_fig15),
    ExperimentDef(
        "table1", "lines of code vs the paper's implementation",
        None, None, None, table1.assemble_table1),
    ExperimentDef(
        "table2", "1GB read on the VMware-like profile",
        "table2", table2.build_table2_sweep, table2.table2_cell,
        table2.assemble_table2),
    ExperimentDef(
        "sec5.3", "VSwapper overheads at zero and light pressure",
        "sec53", sec53.build_sec53_sweep, sec53.sec53_cell,
        sec53.assemble_sec53),
    ExperimentDef(
        "sec5.4", "Windows Server guest: sysbench and bzip2",
        "sec54", sec54.build_sec54_sweep, sec54.sec54_cell,
        sec54.assemble_sec54),
    ExperimentDef(
        "ablation-dirty-bit", "hardware dirty bit vs silent swap writes",
        "ablation-dirty-bit", ablations.build_dirty_bit_sweep,
        ablations.dirty_bit_cell, ablations.assemble_dirty_bit),
    ExperimentDef(
        "ablation-ssd", "HDD vs SSD swap devices, baseline vs VSwapper",
        "ablation-ssd", ablations.build_ssd_sweep, ablations.ssd_cell,
        ablations.assemble_ssd),
    ExperimentDef(
        "ablation-preventer", "Preventer window/page-cap sensitivity",
        "ablation-preventer", ablations.build_preventer_sweep,
        ablations.preventer_cell, ablations.assemble_preventer),
    ExperimentDef(
        "ablation-cluster", "swap readahead cluster size vs decay",
        "ablation-cluster", ablations.build_cluster_sweep,
        ablations.cluster_cell, ablations.assemble_cluster),
    ExperimentDef(
        "migration-study", "live-migration traffic with Mapper knowledge",
        "migration-study", migration.build_migration_sweep,
        migration.migration_cell, migration.assemble_migration),
    ExperimentDef(
        "cluster", "four-node consolidation density vs per-guest slowdown",
        "cluster", cluster.build_cluster_exp_sweep,
        cluster.cluster_fleet_cell, cluster.assemble_cluster),
    ExperimentDef(
        "cluster-chaos",
        "fleet survival and evacuation under injected host crashes",
        "cluster-chaos", cluster_chaos.build_cluster_chaos_sweep,
        cluster_chaos.cluster_chaos_cell,
        cluster_chaos.assemble_cluster_chaos),
    ExperimentDef(
        "chaos", "five configs under deterministic fault injection",
        "chaos", chaos.build_chaos_sweep, chaos.chaos_cell,
        chaos.assemble_chaos),
    ExperimentDef(
        "swaptier",
        "root-cause counters per swap backend (ssd/nvme/zram/remote)",
        "swaptier", swaptier.build_swaptier_sweep, swaptier.swaptier_cell,
        swaptier.assemble_swaptier),
)}

#: Sweep harness id (``CellSpec.experiment_id``) -> cell runner.  Keys
#: are *harness* ids, not CLI ids: shared sweeps appear once.
CELL_RUNNERS: dict[str, Callable[[CellSpec], RunResult]] = {
    d.harness_id: d.cell for d in EXPERIMENTS.values() if d.cell is not None}


def cell_runner(harness_id: str) -> Callable[[CellSpec], RunResult]:
    """Resolve the cell runner for one sweep harness id."""
    try:
        return CELL_RUNNERS[harness_id]
    except KeyError:
        known = ", ".join(sorted(CELL_RUNNERS))
        raise ExperimentError(
            f"no cell runner for harness {harness_id!r}; known: {known}"
        ) from None


def experiment(experiment_id: str) -> ExperimentDef:
    """Resolve one experiment id, or raise a typed error naming the
    known ids."""
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None


def run_experiment(experiment_id: str, *, scale: int = 1,
                   executor=None, store=None, resume: bool = False,
                   **sweep_params) -> FigureResult:
    """Run one experiment by id: build its sweep, run the cells,
    assemble and persist the figure.

    ``sweep_params`` go to the experiment's sweep builder (e.g.
    ``iterations`` for fig9); an unknown one raises ``TypeError``
    before any cell runs.
    """
    definition = experiment(experiment_id)
    if definition.build_sweep is None:
        # Cell-less static result: nothing to scale, execute or resume.
        return finish_figure(definition.assemble(**sweep_params),
                             None, store)
    sweep = definition.build_sweep(scale=scale, **sweep_params)
    outcome = run_sweep(sweep, executor=executor, store=store,
                        resume=resume)
    return finish_figure(definition.assemble(sweep, outcome.results),
                         outcome, store)


def experiment_ids() -> list[str]:
    """All known experiment ids, sorted."""
    return sorted(EXPERIMENTS)


def describe(experiment_id: str) -> str:
    """One-line description for the CLI listing."""
    return experiment(experiment_id).description


def cell_count(experiment_id: str, *, scale: int = 1) -> int:
    """Number of cells the experiment declares at ``scale``."""
    definition = experiment(experiment_id)
    if definition.build_sweep is None:
        return 0
    return len(definition.build_sweep(scale=scale))
