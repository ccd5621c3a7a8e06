"""Figures 4 and 14: phased MapReduce guests under a balloon manager.

Up to ten 2 GB guests start a Metis word-count ten seconds apart on a
host with 8 GB for guests -- demand outruns the balloon manager's
polling control loop, so balloon configurations lean on uncooperative
swapping exactly when memory is scarcest.  The paper's headline: with
VSwapper the average completion time is up to ~2x better than
balloon-plus-baseline, and combining both is best overall.

Both CLI ids (``fig4``, ``fig14``) declare cells under the harness id
``dynamic``: Figure 4 is Figure 14's ten-guest column, so with a
result store the bar chart comes for free after the full grid.

Each cell runs :func:`run_fleet`, the one fleet runner the cluster and
cluster-chaos experiments share, and folds its drivers into a
``RunResult``: ``runtime`` is the average completion time (``None``
when every guest was killed -- JSON has no NaN), ``counters`` carry
``oom_kills`` and ``guests_completed``, and one ``guest-runtime`` phase
mark records each finisher.  Figure 14 series are keyed
``series[config][str(n)]``.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.balloon.manager import BalloonManager, ManagerConfig
from repro.balloon.policy import BalloonPolicy
from repro.cluster import Cluster
from repro.config import ClusterConfig, HostConfig, HostNodeConfig, VmConfig
from repro.driver import VmDriver
from repro.exec.spec import CellSpec, Sweep
from repro.experiments.runner import (
    ConfigName,
    ConfigSpec,
    FigureResult,
    PhaseMark,
    RunResult,
    run_to_completion,
    scaled_guest_config,
    standard_configs,
)
from repro.metrics.report import Table
from repro.units import mib_pages
from repro.workloads.mapreduce import MetisMapReduce

FIG14_CONFIGS = (
    ConfigName.BALLOON_BASELINE,
    ConfigName.BASELINE,
    ConfigName.VSWAPPER,
    ConfigName.BALLOON_VSWAPPER,
)

#: Virtual seconds per engine slice while a fleet runs.  Observable:
#: a cell's final virtual time ends on a slice boundary.
FLEET_SLICE_SECONDS = 60.0

#: Figure 4's bar order (the ten-guest column of Figure 14).
FIG04_CONFIGS = (
    ConfigName.BASELINE,
    ConfigName.BALLOON_BASELINE,
    ConfigName.VSWAPPER,
    ConfigName.BALLOON_VSWAPPER,
)


def make_mapreduce(scale: int, seed: int) -> MetisMapReduce:
    """A Metis word-count sized for ``scale``."""
    return MetisMapReduce(
        input_pages=mib_pages(300 / scale),
        table_pages=mib_pages(1024 / scale),
        min_resident_pages=mib_pages(640 / scale),
        output_pages=mib_pages(8 / scale),
        seed=seed,
    )


def run_fleet(config: ClusterConfig, spec: ConfigSpec, *,
              num_guests: int, scale: int, stagger_seconds: float,
              guest_mib: float) -> tuple[Cluster, list[VmDriver]]:
    """Run ``num_guests`` phased MapReduce guests on a cluster built
    from ``config``, under one swapping configuration.

    Guest ``vmI`` is placed by the cluster's policy, booted with a
    fifth of its memory holding history (a freshly booted guest),
    given the Metis input and output files, and starts ``I *
    stagger_seconds`` in.  Ballooned configurations get a balloon
    manager on the first host.  Returns the finished cluster and the
    drivers, in guest order.
    """
    cluster = Cluster(config)
    drivers: list[VmDriver] = []
    for i in range(num_guests):
        vm = cluster.create_vm(VmConfig(
            name=f"vm{i}",
            guest=scaled_guest_config(guest_mib, scale),
            vswapper=spec.vswapper,
            image_size_pages=mib_pages(4096 / scale),
        ))
        vm.host.boot_guest(vm, fraction=0.2)
        vm.guest.fs.create_file("metis-input", mib_pages(300 / scale))
        vm.guest.fs.create_file("metis-output", mib_pages(16 / scale))
        drivers.append(VmDriver(
            vm, make_mapreduce(scale, seed=100 + i),
            start_delay=i * stagger_seconds / scale))
    if spec.ballooned:
        BalloonManager(cluster.hosts[0], ManagerConfig(
            poll_interval=5.0 / scale,
            max_step_pages=mib_pages(256 / scale),
            policy=BalloonPolicy(
                host_pressure_evictions=max(8, 256 // scale),
                guest_swap_activity_threshold=max(8, 64 // scale),
            ),
        ))
    run_to_completion(cluster.engine, drivers,
                      slice_seconds=FLEET_SLICE_SECONDS)
    return cluster, drivers


def _dynamic_cells(config_names: Sequence[ConfigName],
                   guest_counts: Sequence[int], *, scale: int,
                   stagger_seconds: float = 10.0,
                   host_mib: float = 8192,
                   guest_mib: float = 2048) -> tuple[CellSpec, ...]:
    return tuple(
        CellSpec(
            experiment_id="dynamic",
            cell_id=f"{name.value}@{n}",
            scale=scale,
            config=name.value,
            params={
                "num_guests": n,
                "stagger_seconds": stagger_seconds,
                "host_mib": host_mib,
                "guest_mib": guest_mib,
            },
        )
        for name in config_names
        for n in guest_counts)


def build_fig14_sweep(
    *,
    scale: int = 1,
    guest_counts: Sequence[int] = tuple(range(1, 11)),
    config_names: Sequence[ConfigName] = FIG14_CONFIGS,
) -> Sweep:
    """Declare Figure 14's grid: configuration x guest count."""
    return Sweep("dynamic",
                 _dynamic_cells(config_names, guest_counts, scale=scale))


def build_fig04_sweep(*, scale: int = 1, num_guests: int = 10) -> Sweep:
    """Declare Figure 4: the four-bar, ``num_guests``-guest column."""
    return Sweep("dynamic",
                 _dynamic_cells(FIG04_CONFIGS, (num_guests,), scale=scale))


def dynamic_cell(spec: CellSpec) -> RunResult:
    """Run one phased multi-guest cell and fold it into a RunResult."""
    config = standard_configs([ConfigName(spec.config)])[0]
    params = spec.params
    _, drivers = run_fleet(
        ClusterConfig(
            hosts=(HostNodeConfig(host=HostConfig(
                total_memory_pages=mib_pages(params["host_mib"] / spec.scale),
                swap_size_pages=mib_pages(16 * 1024 / spec.scale),
            )),),
            seed=spec.seed),
        config,
        num_guests=params["num_guests"],
        scale=spec.scale,
        stagger_seconds=params["stagger_seconds"],
        guest_mib=params["guest_mib"],
    )
    runtimes = [d.runtime for d in drivers if not d.crashed]
    return RunResult(
        config=config.name,
        runtime=sum(runtimes) / len(runtimes) if runtimes else None,
        crashed=False,
        counters={"oom_kills": len(drivers) - len(runtimes),
                  "guests_completed": len(runtimes)},
        phases=[PhaseMark("guest-runtime", {"runtime": r}, r)
                for r in runtimes],
    )


def _cell_row(result: RunResult) -> dict:
    return {
        "average_runtime": result.runtime,
        "crashes": result.counters["oom_kills"],
    }


def assemble_fig14(sweep: Sweep,
                   results: Mapping[str, RunResult]) -> FigureResult:
    """Build Figure 14's runtime-vs-guests table from cells."""
    scale = sweep.cells[0].scale
    series: dict = {}
    for cell in sweep.cells:
        series.setdefault(cell.config, {})[
            str(cell.params["num_guests"])] = _cell_row(
                results[cell.cell_id])

    table = Table(
        f"Figure 14 (scale=1/{scale}): phased MapReduce guests, average "
        f"completion time",
        ["config", "guests", "avg runtime [s]", "oom kills"],
    )
    for config, by_n in series.items():
        for n, row in by_n.items():
            runtime = row["average_runtime"]
            table.add_row(config, n,
                          "-" if runtime is None else round(runtime, 1),
                          row["crashes"])
    return FigureResult("fig14", series, table.render())


def assemble_fig04(sweep: Sweep,
                   results: Mapping[str, RunResult]) -> FigureResult:
    """Build Figure 4's bar table from cells."""
    scale = sweep.cells[0].scale
    num_guests = sweep.cells[0].params["num_guests"]
    series: dict = {
        cell.config: _cell_row(results[cell.cell_id])
        for cell in sweep.cells
    }
    table = Table(
        f"Figure 4 (scale=1/{scale}): {num_guests} phased MapReduce "
        f"guests, average completion time",
        ["config", "avg runtime [s]", "oom kills"],
    )
    for config, row in series.items():
        runtime = row["average_runtime"]
        table.add_row(config,
                      "-" if runtime is None else round(runtime, 1),
                      row["crashes"])
    return FigureResult("fig04", series, table.render())
