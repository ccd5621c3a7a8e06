"""Live-migration traffic study (the paper's Section 7 future work).

Runs a file-heavy workload to a steady state, then asks the
:class:`repro.core.migration.MigrationPlanner` how many bytes a live
migration would move with and without Mapper knowledge.

Each cell records the planner's raw page counts as integer counters
(``migration_*_pages``); the figure derives byte totals and savings
from them, so the persisted cell stays pure JSON.
"""

from __future__ import annotations

from typing import Mapping

from repro.cluster import Cluster
from repro.core.migration import MigrationPlan, MigrationPlanner
from repro.errors import ExperimentError
from repro.exec.spec import CellSpec, Sweep
from repro.experiments.runner import (
    ConfigName,
    FigureResult,
    RunResult,
    scaled_guest_config,
    standard_configs,
)
from repro.config import ClusterConfig, VmConfig
from repro.driver import VmDriver
from repro.metrics.report import Table
from repro.units import MIB, mib_pages
from repro.workloads.sysbench import SysbenchFileRead

MIGRATION_CONFIGS = (ConfigName.BASELINE, ConfigName.VSWAPPER)

#: MigrationPlan field -> counter name, in dataclass order.
_PLAN_COUNTERS = {
    "private_pages": "migration_private_pages",
    "mapped_pages": "migration_mapped_pages",
    "discarded_pages": "migration_discarded_pages",
    "swapped_private_pages": "migration_swapped_private_pages",
    "zero_pages": "migration_zero_pages",
}


def build_migration_sweep(*, scale: int = 1) -> Sweep:
    """Declare the migration study: one cell per source config."""
    cells = tuple(
        CellSpec(
            experiment_id="migration-study",
            cell_id=name.value,
            scale=scale,
            config=name.value,
        )
        for name in MIGRATION_CONFIGS)
    return Sweep("migration-study", cells)


def migration_cell(spec: CellSpec) -> RunResult:
    """Run the source workload and snapshot the migration plan."""
    scale = spec.scale
    config = standard_configs([ConfigName(spec.config)])[0]
    cluster = Cluster(ClusterConfig(seed=spec.seed))
    vm = cluster.create_vm(VmConfig(
        name="migrant",
        guest=scaled_guest_config(512, scale),
        vswapper=config.vswapper,
        resident_limit_pages=mib_pages(256 / scale),
    ))
    vm.host.boot_guest(vm)
    vm.guest.fs.create_file("sysbench.dat", mib_pages(300 / scale))
    driver = VmDriver(vm, SysbenchFileRead(
        file_pages=mib_pages(300 / scale), iterations=2))
    # Nothing periodic runs: the queue drains when the workload ends.
    cluster.run()
    if not driver.done:
        raise ExperimentError("engine drained before the workload finished")
    plan = MigrationPlanner().plan(vm)
    counters = {
        counter: getattr(plan, field)
        for field, counter in _PLAN_COUNTERS.items()
    }
    return RunResult(
        config=config.name,
        runtime=driver.runtime if not driver.crashed else None,
        crashed=driver.crashed,
        counters=counters,
    )


def _plan_from_counters(counters: Mapping[str, int]) -> MigrationPlan:
    return MigrationPlan(**{
        field: counters[counter]
        for field, counter in _PLAN_COUNTERS.items()
    })


def assemble_migration(sweep: Sweep,
                       results: Mapping[str, RunResult]) -> FigureResult:
    """Build the migration-traffic table from cells."""
    scale = sweep.cells[0].scale
    rows: dict = {}
    for cell in sweep.cells:
        plan = _plan_from_counters(results[cell.cell_id].counters)
        rows[cell.config] = {
            "baseline_mib": plan.baseline_bytes / MIB,
            "vswapper_mib": plan.vswapper_bytes / MIB,
            "savings": plan.savings_fraction,
        }

    table = Table(
        f"Live migration study (scale=1/{scale}): traffic to move the "
        f"guest after a file-heavy run (paper Sec. 7)",
        ["source config", "baseline transfer [MiB]",
         "mapping-aware transfer [MiB]", "savings"],
    )
    for config, row in rows.items():
        table.add_row(config, round(row["baseline_mib"], 1),
                      round(row["vswapper_mib"], 1),
                      f"{row['savings'] * 100:.0f}%")
    return FigureResult("migration-study", rows, table.render())
