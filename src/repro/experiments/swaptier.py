"""Swap-backend tiering study: which root causes survive fast swap?

The paper's uncooperative-swapping pathologies (stale reads, silent
swap writes, false page anonymity, decayed sequentiality) were
measured against a shared rotating disk.  This experiment re-runs the
Figure 9 workload with host swap served by each registered backend --
SSD, NVMe, compressed RAM, remote memory, and the zram-over-SSD tier
-- under both the baseline and VSwapper configurations.

The interesting output is not just that faster swap shrinks runtimes:
it is *which root-cause counters collapse* as the device gets faster.
Stale reads and silent swap writes are correctness/traffic problems --
a faster device pays for them more quickly but does not remove them --
while decayed sequentiality is a *positioning* problem that
position-independent devices do not feel at all.  The per-backend
baseline/vswapper runtime ratio quantifies how much of VSwapper's
advantage each backend preserves (the paper argues the write
elimination keeps paying on SSDs).
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
from repro.workloads.sysbench import SysbenchFileRead

#: Every registered backend, default disk path first (the anchor row).
SWAPTIER_BACKENDS = ("disk", "ssd", "nvme", "zram", "remote", "tiered")

SWAPTIER_CONFIGS = (ConfigName.BASELINE, ConfigName.VSWAPPER)

#: Root-cause counters the per-backend comparison reports.
ROOT_CAUSE_COUNTERS = (
    "stale_reads",
    "silent_swap_writes",
    "host_context_faults",
    "guest_context_faults",
    "swap_sectors_written",
)


def build_swaptier_sweep(*, scale: int = 1,
                         backends: Sequence[str] = SWAPTIER_BACKENDS,
                         ) -> Sweep:
    """Declare the backend x configuration grid."""
    cells = tuple(
        CellSpec(
            experiment_id="swaptier",
            cell_id=f"{backend}/{name.value}",
            scale=scale,
            config=name.value,
            params={"swap_backend": backend},
            # backend=None keeps the disk row on the exact pre-backend
            # cache identity (and the bit-identical code path).
            backend=None if backend == "disk" else backend,
        )
        for backend in backends
        for name in SWAPTIER_CONFIGS)
    return Sweep("swaptier", cells)


def swaptier_cell(spec: CellSpec) -> RunResult:
    """Run sysbench x4 on one (swap backend, config) cell.

    The backend itself arrives through the run context:
    ``execute_cell`` installs ``spec.backend`` before calling this
    runner, and the host picks it up when the node config leaves
    ``swap_backend`` unset -- the same route the CLI's
    ``--swap-backend`` flag takes.
    """
    scale = spec.scale
    experiment = SingleVmExperiment(
        actual_mib=100 / scale,
        cluster_config=ClusterConfig(seed=spec.seed),
        guest_config=scaled_guest_config(512, scale),
        files=[("sysbench.dat", mib_pages(200 / scale))],
    )
    config = standard_configs([ConfigName(spec.config)])[0]
    return experiment.run(config, SysbenchFileRead(
        file_pages=mib_pages(200 / scale), iterations=4))


def assemble_swaptier(sweep: Sweep,
                      results: Mapping[str, RunResult]) -> FigureResult:
    """Per-backend runtimes, root-cause counters, and speedup ratios."""
    scale = sweep.cells[0].scale
    rows: dict = {}
    for cell in sweep.cells:
        result = results[cell.cell_id]
        rows[cell.cell_id] = {
            "runtime": result.runtime,
            "status": result.status,
            **{name: result.counters.get(name, 0)
               for name in ROOT_CAUSE_COUNTERS},
        }

    #: backend -> baseline/vswapper runtime ratio (VSwapper's edge).
    speedups: dict = {}
    backends = []
    for cell in sweep.cells:
        backend = cell.params["swap_backend"]
        if backend not in backends:
            backends.append(backend)
    for backend in backends:
        base = rows.get(f"{backend}/baseline", {}).get("runtime")
        vsw = rows.get(f"{backend}/vswapper", {}).get("runtime")
        speedups[backend] = (round(base / vsw, 2)
                             if base and vsw else None)

    table = Table(
        f"Swap-backend tiers (scale=1/{scale}): sysbench x4 per backend",
        ["backend", "config", "runtime [s]", "stale reads",
         "silent writes", "host faults", "guest faults",
         "swap sectors", "base/vsw"],
    )
    for cell in sweep.cells:
        row = rows[cell.cell_id]
        backend = cell.params["swap_backend"]
        runtime = row["runtime"]
        table.add_row(
            backend, cell.config,
            row["status"] if runtime is None else round(runtime, 2),
            row["stale_reads"], row["silent_swap_writes"],
            row["host_context_faults"], row["guest_context_faults"],
            row["swap_sectors_written"],
            speedups[backend] if cell.config == "vswapper" else "")
    return FigureResult("swaptier", {"cells": rows, "speedups": speedups},
                        table.render())
