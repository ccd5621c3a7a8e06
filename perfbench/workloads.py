"""The benchmark's workloads: which cells each runs, and their checks.

A workload is a fixed list of existing experiment cells at scale 8.
The benchmark builds them from the experiments' own sweep builders,
replaces only the seed, and hands the program nothing but the
resulting :class:`~repro.exec.spec.CellSpec` objects.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

#: Every workload runs at this scale (sizes divided by 8).
SCALE = 8

#: ``swaptier_cell`` runs sysbench for this many iterations.
SWAPTIER_ITERATIONS = 4


@dataclass(frozen=True)
class Workload:
    """One named set of cells and what it must exercise."""

    name: str
    why: str
    #: Harness id -> the cell ids taken from its sweep, in run order.
    cells: tuple[tuple[str, str], ...]
    #: Layers that must record at least one span in a traced run.
    stresses: tuple[str, ...]
    #: Per-layer metrics that must be above zero in a traced run.
    positive: tuple[str, ...] = ()
    #: Two cell ids whose root-cause counters must be equal.
    invariant_pair: tuple[str, str] | None = None


#: Layers every cell passes through, whatever it runs.
COMMON_LAYERS = ("exec", "cluster", "sim", "guest", "host", "mem", "disk",
                 "swapback")

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "fileread",
        "fig9 baseline and vswapper: one guest re-reads a 200 MB file from "
        "HDD; file-backed path (virtio_read, page cache, reclaim, seeks, "
        "Mapper)",
        (("fig09", "baseline"), ("fig09", "vswapper")),
        stresses=COMMON_LAYERS + ("core",),
        positive=("core.mapper_discards", "disk.seeks")),
    Workload(
        "mapreduce",
        "fig14 vswapper@10 and balloon+vswap@10: ten phased Metis guests on "
        "one host; anonymous-overwrite path, Preventer and balloon",
        (("dynamic", "vswapper@10"), ("dynamic", "balloon+vswap@10")),
        stresses=COMMON_LAYERS + ("core", "balloon"),
        positive=("core.preventer_remaps", "balloon.inflated_pages")),
    Workload(
        "fleet",
        "cluster baseline@first-fitx8: eight guests on four hosts with "
        "first-fit placement; the only workload with pressure migrations",
        (("cluster", "baseline@first-fitx8"),),
        stresses=COMMON_LAYERS,
        positive=("cluster.migrations",)),
    Workload(
        "swaptier",
        "swaptier disk/baseline and tiered/baseline: fig9's guest with "
        "host swap on HDD and on zram-over-SSD; the swap-backend path",
        (("swaptier", "disk/baseline"), ("swaptier", "tiered/baseline")),
        stresses=COMMON_LAYERS,
        positive=("swapback.pages_stored",),
        invariant_pair=("disk/baseline", "tiered/baseline")),
)}


def _sweeps() -> dict[str, Callable]:
    """Harness id -> zero-argument builder of its scale-8 sweep."""
    from repro.experiments.cluster import build_cluster_exp_sweep
    from repro.experiments.dynamic import build_fig14_sweep
    from repro.experiments.fig09 import build_fig09_sweep
    from repro.experiments.swaptier import build_swaptier_sweep

    return {
        "fig09": lambda: build_fig09_sweep(scale=SCALE),
        "dynamic": lambda: build_fig14_sweep(scale=SCALE,
                                             guest_counts=(10,)),
        "cluster": lambda: build_cluster_exp_sweep(scale=SCALE),
        "swaptier": lambda: build_swaptier_sweep(
            scale=SCALE, backends=("disk", "tiered")),
    }


def build_cells(workload: Workload, seed: int) -> list:
    """The workload's cell specs, seeded with ``seed``."""
    sweeps = _sweeps()
    specs = []
    for harness, cell_id in workload.cells:
        by_id = {cell.cell_id: cell for cell in sweeps[harness]().cells}
        specs.append(dataclasses.replace(by_id[cell_id], seed=seed))
    return specs


def cell_problems(spec, result) -> list[str]:
    """Why a cell's output is wrong (empty when it is right).

    A cell is right when it finished un-crashed and un-degraded with a
    positive simulated runtime, every iteration done (sysbench cells)
    or every guest completed (multi-guest cells).
    """
    problems = []
    if result.status != "ok":
        problems.append(f"status {result.status}: {result.crash_reason}")
    if result.runtime is None or not result.runtime > 0:
        problems.append(f"runtime {result.runtime!r}")
    if spec.experiment_id in ("fig09", "swaptier"):
        want = (spec.params["iterations"] if spec.experiment_id == "fig09"
                else SWAPTIER_ITERATIONS)
        done = len(result.iteration_durations())
        if done != want:
            problems.append(f"{done} of {want} iterations")
    else:
        want = spec.params["num_guests"]
        done = result.counters.get("guests_completed")
        if done != want or result.counters.get("oom_kills"):
            problems.append(
                f"{done} of {want} guests completed, "
                f"{result.counters.get('oom_kills')} OOM kills")
    return problems
