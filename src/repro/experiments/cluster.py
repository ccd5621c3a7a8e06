"""Cluster experiment: consolidation density vs per-guest slowdown.

The paper evaluates VSwapper on one overcommitted host; this experiment
asks the operator's follow-up question: *how densely can a small fleet
be packed before per-guest slowdown becomes unacceptable, and how much
does the answer depend on swapping quality?*  A four-node cluster with
per-node overcommit ratios and ``memory.swap.max``-style swap budgets
places 4/8/16 phased MapReduce guests under each placement policy
(``first-fit``, ``balance``, ``pack``) and both swapping configurations
(``baseline``, ``vswapper``), with pressure-driven live migration
rebalancing nodes whose swap budget fills past the threshold.

Each cell reports the fleet's average completion time normalized
against an unloaded singleton run (the ``@solo`` cell, shared across
policies and fleet sizes), plus the migrations the pressure controller
performed.  Everything flows through the standard sweep/cache stack,
so ``--jobs`` parallelism and ``--resume`` caching come for free --
and cluster runs stay bit-deterministic either way.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.config import (
    ClusterConfig,
    ClusterMigrationConfig,
    FaultConfig,
    HostConfig,
    HostNodeConfig,
    PLACEMENT_POLICIES,
)
from repro.exec.spec import CellSpec, Sweep
from repro.experiments.dynamic import run_fleet
from repro.experiments.runner import (
    ConfigName,
    FigureResult,
    PhaseMark,
    RunResult,
    run_guarded,
    standard_configs,
)
from repro.metrics.report import Table
from repro.units import mib_pages

#: The two swapping configurations the density question contrasts.
CLUSTER_CONFIGS = (ConfigName.BASELINE, ConfigName.VSWAPPER)

#: Fleet sizes placed on the four-node cluster.  Sixteen guests is the
#: admission capacity (4 nodes x 4 GiB x ratio 2.0 / 2 GiB guests), at
#: which point every node is full and migration has nowhere to go.
FLEET_SIZES = (4, 8, 16)

#: Cell id suffix of the unloaded singleton reference run.
SOLO = "solo"


#: Every fleet guest believes it has this much memory (scale 1).
GUEST_MIB = 2048

#: Seconds between consecutive guests' starts (scale 1).
STAGGER_SECONDS = 10.0

#: Physical memory of each node (scale 1).
NODE_MIB = 4096

#: Admission: believed guest memory may reach this multiple of a
#: node's frames.
OVERCOMMIT_RATIO = 2.0

#: Each node's ``memory.swap.max``-style budget (scale 1)...
SWAP_BUDGET_MIB = 512

#: ...and the share of it in use at which the node reports pressure.
PRESSURE_THRESHOLD = 0.5


def fleet_config(*, num_hosts: int, policy: str, scale: int, seed: int,
                 migration: bool,
                 faults: FaultConfig | None = None) -> ClusterConfig:
    """The experiment's cluster: ``num_hosts`` identical budgeted nodes.

    ``migration`` turns the pressure-driven controller on; it checks
    node pressure every ``5 / scale`` virtual seconds.
    """
    return ClusterConfig(
        hosts=tuple(
            HostNodeConfig(
                name=f"node{i}",
                host=HostConfig(
                    total_memory_pages=mib_pages(NODE_MIB / scale),
                    swap_size_pages=mib_pages(8 * 1024 / scale),
                ),
                overcommit_ratio=OVERCOMMIT_RATIO,
                swap_budget_pages=mib_pages(SWAP_BUDGET_MIB / scale),
                pressure_threshold=PRESSURE_THRESHOLD,
            )
            for i in range(num_hosts)),
        placement=policy,
        migration=ClusterMigrationConfig(
            enabled=migration, check_interval=5.0 / scale),
        seed=seed,
        faults=faults,
    )


def _fleet_cells(config_names: Sequence[ConfigName],
                 policies: Sequence[str],
                 fleet_sizes: Sequence[int], *, scale: int,
                 num_hosts: int = 4) -> tuple[CellSpec, ...]:
    """Declare the grid plus one shared singleton cell per config."""

    def cell(name: ConfigName, cell_id: str, *, n: int, hosts: int,
             policy: str) -> CellSpec:
        return CellSpec(
            experiment_id="cluster",
            cell_id=cell_id,
            scale=scale,
            config=name.value,
            params={
                "num_guests": n,
                "num_hosts": hosts,
                "policy": policy,
            },
        )

    cells = [
        # The unloaded reference: one guest on a one-node cluster.  One
        # cell per config, shared by every (policy, fleet size) row.
        cell(name, f"{name.value}@{SOLO}", n=1, hosts=1,
             policy="first-fit")
        for name in config_names
    ]
    cells.extend(
        cell(name, f"{name.value}@{policy}x{n}", n=n, hosts=num_hosts,
             policy=policy)
        for name in config_names
        for policy in policies
        for n in fleet_sizes)
    return tuple(cells)


def build_cluster_exp_sweep(
    *,
    scale: int = 1,
    config_names: Sequence[ConfigName] = CLUSTER_CONFIGS,
    policies: Sequence[str] = PLACEMENT_POLICIES,
    fleet_sizes: Sequence[int] = FLEET_SIZES,
) -> Sweep:
    """Declare the density grid: config x policy x fleet size (+ solo)."""
    return Sweep("cluster", _fleet_cells(
        config_names, policies, fleet_sizes, scale=scale))


def cluster_fleet_cell(spec: CellSpec) -> RunResult:
    """Run one fleet cell and fold it into a RunResult.

    Placement failures and budget-exceeded swap errors are
    fault-induced in spirit -- the fleet did not fit -- so the cell
    reports as crashed instead of aborting the sweep.
    """
    config = standard_configs([ConfigName(spec.config)])[0]

    def run() -> RunResult:
        cluster, drivers = run_fleet(
            fleet_config(num_hosts=spec.params["num_hosts"],
                         policy=spec.params["policy"], scale=spec.scale,
                         seed=spec.seed, migration=True),
            config,
            num_guests=spec.params["num_guests"],
            scale=spec.scale,
            stagger_seconds=STAGGER_SECONDS,
            guest_mib=GUEST_MIB,
        )
        runtimes = [d.runtime for d in drivers if not d.crashed]
        migrations = cluster.migrations
        phases = [PhaseMark("placement", {"vm": vm, "host": host}, 0.0)
                  for vm, host in cluster.placements]
        phases += [PhaseMark("migration", record.to_dict(), record.time)
                   for record in migrations]
        phases += [PhaseMark("guest-runtime", {"runtime": r}, r)
                   for r in runtimes]
        return RunResult(
            config=config.name,
            runtime=sum(runtimes) / len(runtimes) if runtimes else None,
            crashed=False,
            counters={
                "oom_kills": len(drivers) - len(runtimes),
                "guests_completed": len(runtimes),
                "migrations": len(migrations),
                "migration_pages": sum(
                    r.carried_pages for r in migrations),
                "migration_bytes": sum(
                    int(r.transferred_bytes) for r in migrations),
            },
            phases=phases,
        )

    return run_guarded(config.name, run)


def _density_row(result: RunResult, solo: RunResult | None) -> dict:
    slowdown = None
    if (result.runtime is not None and solo is not None
            and solo.runtime):
        slowdown = result.runtime / solo.runtime
    return {
        "average_runtime": result.runtime,
        "slowdown": slowdown,
        "migrations": result.counters.get("migrations", 0),
        "oom_kills": result.counters.get("oom_kills", 0),
        "crashed": result.crashed,
    }


def assemble_cluster(sweep: Sweep,
                     results: Mapping[str, RunResult]) -> FigureResult:
    """Build the density-vs-slowdown table from the sweep's cells."""
    scale = sweep.cells[0].scale
    solos = {
        cell.config: results[cell.cell_id]
        for cell in sweep.cells if cell.cell_id.endswith(f"@{SOLO}")
    }
    series: dict = {}
    for cell in sweep.cells:
        if cell.cell_id.endswith(f"@{SOLO}"):
            series.setdefault(cell.config, {})[SOLO] = {
                "average_runtime": results[cell.cell_id].runtime,
            }
            continue
        series.setdefault(cell.config, {}).setdefault(
            cell.params["policy"], {})[
                str(cell.params["num_guests"])] = _density_row(
                    results[cell.cell_id], solos.get(cell.config))

    table = Table(
        f"Cluster (scale=1/{scale}): consolidation density vs per-guest "
        f"slowdown, four nodes",
        ["config", "policy", "guests", "avg runtime [s]", "slowdown",
         "migrations", "oom kills"],
    )
    for config, by_policy in series.items():
        for policy, by_n in by_policy.items():
            if policy == SOLO:
                continue
            for n, row in by_n.items():
                runtime = row["average_runtime"]
                slowdown = row["slowdown"]
                table.add_row(
                    config, policy, n,
                    "-" if runtime is None else round(runtime, 1),
                    "-" if slowdown is None else round(slowdown, 2),
                    row["migrations"], row["oom_kills"])
    return FigureResult("cluster", series, table.render())
