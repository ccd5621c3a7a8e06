"""Table 2: the VMware-profile experiment.

The paper runs a 1 GB sequential file read inside a Linux guest on
VMware Workstation 9 (512 MB host, 440 MB guest, 350 MB reservation)
with the balloon enabled vs disabled, showing that disabling it more
than triples the runtime and roughly quadruples swap traffic -- i.e.
the pathologies are not KVM-specific.

Our VMware-like profile differs from the KVM profile in the ways the
paper implies matter: no asynchronous page faults, and a hosted
(Workstation) I/O path.  The balloon-enabled row statically balloons
the guest down to its reservation; the disabled row leaves the guest
unaware while the host enforces the same grant uncooperatively.
"""

from __future__ import annotations

from typing import Mapping

from repro.config import (
    ClusterConfig,
    HostConfig,
    HostNodeConfig,
    HypervisorKind,
)
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

#: Row label -> configuration, in the paper's column order.
TABLE2_CASES = (
    ("balloon enabled", ConfigName.BALLOON_BASELINE),
    ("balloon disabled", ConfigName.BASELINE),
)


def vmware_host_config(scale: int) -> HostConfig:
    """The Table 2 host: a VMware-Workstation-like profile."""
    return HostConfig(
        total_memory_pages=mib_pages(512 / scale),
        swap_size_pages=mib_pages(4096 / scale),
        async_page_faults=False,
        kind=HypervisorKind.VMWARE,
    )


def build_table2_sweep(*, scale: int = 1) -> Sweep:
    """Declare Table 2's two cells: balloon enabled vs disabled."""
    cells = tuple(
        CellSpec(
            experiment_id="table2",
            cell_id=label,
            scale=scale,
            config=name.value,
            params={"label": label},
        )
        for label, name in TABLE2_CASES)
    return Sweep("table2", cells)


def table2_cell(spec: CellSpec) -> RunResult:
    """Run the 1 GB sequential read on the VMware-like profile."""
    scale = spec.scale
    experiment = SingleVmExperiment(
        actual_mib=360 / scale,
        cluster_config=ClusterConfig(
            hosts=(HostNodeConfig(host=vmware_host_config(scale)),),
            seed=spec.seed),
        guest_config=scaled_guest_config(440, scale),
        files=[("sysbench.dat", mib_pages(1024 / scale))],
    )
    config = standard_configs([ConfigName(spec.config)])[0]
    workload = SysbenchFileRead(
        file_pages=mib_pages(1024 / scale), iterations=1)
    return experiment.run(config, workload)


def assemble_table2(sweep: Sweep,
                    results: Mapping[str, RunResult]) -> FigureResult:
    """Build Table 2's metric rows from cells."""
    scale = sweep.cells[0].scale
    rows: dict = {}
    for cell in sweep.cells:
        result = results[cell.cell_id]
        counters = result.counters
        rows[cell.params["label"]] = {
            "runtime": result.runtime,
            "swap_read_sectors": counters.get("swap_sectors_read", 0),
            "swap_write_sectors": counters.get("swap_sectors_written", 0),
            "major_faults": (counters.get("guest_context_faults", 0)
                             + counters.get("host_context_faults", 0)),
        }

    table = Table(
        f"Table 2 (scale=1/{scale}): 1GB sequential read on the "
        f"VMware-like profile (440MB guest, 360MB grant)",
        ["metric", "balloon enabled", "balloon disabled"],
    )
    table.add_row("runtime (sec)",
                  round(rows["balloon enabled"]["runtime"], 1),
                  round(rows["balloon disabled"]["runtime"], 1))
    for metric in ("swap_read_sectors", "swap_write_sectors",
                   "major_faults"):
        table.add_row(metric,
                      rows["balloon enabled"][metric],
                      rows["balloon disabled"][metric])
    return FigureResult("table2", rows, table.render())
