"""Cluster experiment: consolidation density vs per-guest slowdown.

The paper evaluates VSwapper on one overcommitted host; this experiment
asks the operator's follow-up question: *how densely can a small fleet
be packed before per-guest slowdown becomes unacceptable, and how much
does the answer depend on swapping quality?*  A four-node cluster with
per-node overcommit ratios and ``memory.swap.max``-style swap budgets
places 4/8/12 phased MapReduce guests under each placement policy
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

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.cluster import Cluster
from repro.config import (
    ClusterConfig,
    ClusterMigrationConfig,
    HostConfig,
    HostNodeConfig,
    PLACEMENT_POLICIES,
)
from repro.exec.spec import CellSpec, Sweep
from repro.experiments.dynamic import FLEET_SLICE_SECONDS, deploy_fleet
from repro.experiments.runner import (
    ConfigName,
    ConfigSpec,
    FigureResult,
    PhaseMark,
    RunResult,
    run_guarded,
    run_to_completion,
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


@dataclass
class ClusterFleetResult:
    """Outcome of one fleet run on the cluster."""

    config: ConfigName
    policy: str
    runtimes: list[float]
    crashes: int
    placements: list[tuple[str, str]]
    migrations: list


def _fleet_nodes(num_hosts: int, *, scale: int, host_mib: float,
                 overcommit_ratio: float | None, swap_budget_mib: float,
                 pressure_threshold: float) -> tuple[HostNodeConfig, ...]:
    """Homogeneous node specs for the experiment's fleet."""
    return tuple(
        HostNodeConfig(
            name=f"node{i}",
            host=HostConfig(
                total_memory_pages=mib_pages(host_mib / scale),
                swap_size_pages=mib_pages(8 * 1024 / scale),
            ),
            overcommit_ratio=overcommit_ratio,
            swap_budget_pages=mib_pages(swap_budget_mib / scale),
            pressure_threshold=pressure_threshold,
        )
        for i in range(num_hosts))


def run_cluster_fleet(spec: ConfigSpec, *, num_guests: int,
                      num_hosts: int = 4, policy: str = "first-fit",
                      scale: int = 1, stagger_seconds: float = 10.0,
                      host_mib: float = 4096, guest_mib: float = 2048,
                      overcommit_ratio: float | None = 2.0,
                      swap_budget_mib: float = 512,
                      pressure_threshold: float = 0.5,
                      migration_enabled: bool = True,
                      seed: int = 1) -> ClusterFleetResult:
    """Run ``num_guests`` phased MapReduce guests across the cluster."""
    cluster = Cluster(ClusterConfig(
        hosts=_fleet_nodes(
            num_hosts, scale=scale, host_mib=host_mib,
            overcommit_ratio=overcommit_ratio,
            swap_budget_mib=swap_budget_mib,
            pressure_threshold=pressure_threshold),
        placement=policy,
        migration=ClusterMigrationConfig(
            enabled=migration_enabled,
            check_interval=5.0 / scale),
        seed=seed,
    ))
    drivers = deploy_fleet(cluster, spec, num_guests=num_guests,
                           scale=scale, stagger_seconds=stagger_seconds,
                           guest_mib=guest_mib)
    run_to_completion(cluster.engine, drivers,
                      slice_seconds=FLEET_SLICE_SECONDS)
    runtimes = [d.runtime for d in drivers if not d.crashed]
    crashes = sum(1 for d in drivers if d.crashed)
    return ClusterFleetResult(
        spec.name, policy, runtimes, crashes,
        list(cluster.placements), list(cluster.migrations))


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
        outcome = run_cluster_fleet(
            config,
            num_guests=spec.params["num_guests"],
            num_hosts=spec.params["num_hosts"],
            policy=spec.params["policy"],
            scale=spec.scale,
            seed=spec.seed,
        )
        runtime = (sum(outcome.runtimes) / len(outcome.runtimes)
                   if outcome.runtimes else None)
        phases = [PhaseMark("placement", {"vm": vm, "host": host}, 0.0)
                  for vm, host in outcome.placements]
        phases += [PhaseMark("migration", record.to_dict(), record.time)
                   for record in outcome.migrations]
        phases += [PhaseMark("guest-runtime", {"runtime": r}, r)
                   for r in outcome.runtimes]
        return RunResult(
            config=config.name,
            runtime=runtime,
            crashed=False,
            counters={
                "oom_kills": outcome.crashes,
                "guests_completed": len(outcome.runtimes),
                "migrations": len(outcome.migrations),
                "migration_pages": sum(
                    r.carried_pages for r in outcome.migrations),
                "migration_bytes": sum(
                    int(r.transferred_bytes) for r in outcome.migrations),
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
