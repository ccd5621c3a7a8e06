"""Section 5.4: non-Linux guests (Windows Server 2012).

The paper validates guest-agnosticism on a Windows VM: a 2 GB-file
Sysbench read in a 2 GB guest granted 1 GB runs 302 s without VSwapper
and 79 s with it; bzip2 in the same guest at 512 MB runs 306 s vs
149 s.  The Windows profile differs in ways that matter here: no
async-page-fault support, a background zero-page thread (a steady
false-read generator), and sporadic sub-4KiB disk accesses the Mapper
cannot track.

The sweep is a 2x2 grid: workload x {baseline, vswapper}.
"""

from __future__ import annotations

from typing import Mapping

from repro.config import ClusterConfig, GuestConfig, GuestOsKind
from repro.exec.spec import CellSpec, Sweep
from repro.experiments.runner import (
    ConfigName,
    FigureResult,
    RunResult,
    SingleVmExperiment,
    standard_configs,
)
from repro.metrics.report import Table
from repro.units import mib_pages
from repro.workloads.pbzip import BzipCompress
from repro.workloads.sysbench import SysbenchFileRead

SEC54_WORKLOADS = ("sysbench", "bzip")

SEC54_CASES = (
    ("without vswapper", ConfigName.BASELINE),
    ("with vswapper", ConfigName.VSWAPPER),
)


def windows_guest_config(guest_mib: float, scale: int) -> GuestConfig:
    """A Windows Server-like guest profile."""
    return GuestConfig(
        memory_pages=mib_pages(guest_mib / scale),
        kernel_reserve_pages=mib_pages(48 / scale),
        guest_swap_pages=mib_pages(2048 / scale),
        os_kind=GuestOsKind.WINDOWS,
        zero_free_pages=True,
        unaligned_io_fraction=0.02,
    )


def build_sec54_sweep(*, scale: int = 1) -> Sweep:
    """Declare the 2x2 grid: workload x configuration."""
    cells = tuple(
        CellSpec(
            experiment_id="sec54",
            cell_id=f"{name.value}/{workload}",
            scale=scale,
            config=name.value,
            params={"workload": workload, "label": label},
        )
        for label, name in SEC54_CASES
        for workload in SEC54_WORKLOADS)
    return Sweep("sec54", cells)


def sec54_cell(spec: CellSpec) -> RunResult:
    """Run one Windows-guest (workload, configuration) cell."""
    scale = spec.scale
    config = standard_configs([ConfigName(spec.config)])[0]
    if spec.params["workload"] == "sysbench":
        # Experiment 1: Sysbench, 2GB file, 2GB guest, 1GB grant.
        experiment = SingleVmExperiment(
            actual_mib=1024 / scale,
            cluster_config=ClusterConfig(seed=spec.seed),
            guest_config=windows_guest_config(2048, scale),
            files=[("sysbench.dat", mib_pages(2048 / scale))],
        )
        workload = SysbenchFileRead(
            file_pages=mib_pages(2048 / scale), iterations=1)
    else:
        # Experiment 2: bzip2 in the same guest at 512MB.
        experiment = SingleVmExperiment(
            actual_mib=512 / scale,
            cluster_config=ClusterConfig(seed=spec.seed),
            guest_config=windows_guest_config(2048, scale),
            files=[
                ("pbzip-input", mib_pages(500 / scale)),
                ("pbzip-output", mib_pages(140 / scale)),
            ],
        )
        workload = BzipCompress(
            input_pages=mib_pages(500 / scale),
            min_resident_pages=mib_pages(220 / scale))
    return experiment.run(config, workload)


def assemble_sec54(sweep: Sweep,
                   results: Mapping[str, RunResult]) -> FigureResult:
    """Build the Windows-guest comparison table from cells."""
    scale = sweep.cells[0].scale
    series: dict = {}
    for cell in sweep.cells:
        result = results[cell.cell_id]
        row = series.setdefault(cell.params["label"], {})
        workload = cell.params["workload"]
        row[f"{workload}_runtime"] = result.runtime
        row[f"{workload}_false_reads"] = result.counters.get("false_reads")

    table = Table(
        f"Section 5.4 (scale=1/{scale}): Windows Server guest",
        ["experiment", "paper w/o -> w/", "repro w/o -> w/"],
    )
    table.add_row(
        "sysbench 2GB read (1GB grant)",
        "302s -> 79s",
        f"{series['without vswapper']['sysbench_runtime']:.1f}s -> "
        f"{series['with vswapper']['sysbench_runtime']:.1f}s")
    table.add_row(
        "bzip2 (512MB grant)",
        "306s -> 149s",
        f"{series['without vswapper']['bzip_runtime']:.1f}s -> "
        f"{series['with vswapper']['bzip_runtime']:.1f}s")
    return FigureResult("sec5.4", series, table.render())
