"""Ablation studies for the design choices DESIGN.md calls out.

These go beyond the paper's figures and quantify:

* the **hardware dirty bit** the paper anticipates from Haswell
  (Section 3 footnote, Section 7) -- how much of the silent-write
  traffic a guest-page dirty bit alone would remove;
* **SSD swap devices** -- the paper remarks VSwapper's write
  elimination "makes it beneficial for systems that employ SSDs";
* the Preventer's **emulation window and page cap** (the empirically
  chosen 1 ms / 32 pages, Section 4.2);
* the host's **swap readahead cluster size** interaction with decayed
  sequentiality.

Series keys are JSON-safe strings: ``"hdd/baseline"`` for the SSD
grid, ``"1ms/32"`` for the Preventer grid, ``"8"`` for cluster sizes.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Sequence

from repro.config import (
    ClusterConfig,
    DiskConfig,
    HostConfig,
    HostNodeConfig,
    VSwapperConfig,
)
from repro.exec.spec import CellSpec, Sweep
from repro.experiments.runner import (
    ConfigName,
    ConfigSpec,
    FigureResult,
    RunResult,
    SingleVmExperiment,
    scaled_guest_config,
    standard_configs,
)
from repro.metrics.report import Table
from repro.units import mib_pages
from repro.workloads.alloctouch import SysbenchThenAlloc
from repro.workloads.sysbench import SysbenchFileRead

DIRTY_BIT_CASES = (
    ("no dirty bit (2013 hw)", False),
    ("hardware dirty bit (Haswell)", True),
)

SSD_DISK_KINDS = ("hdd", "ssd")
SSD_CONFIGS = (ConfigName.BASELINE, ConfigName.VSWAPPER)

DEFAULT_PREVENTER_WINDOWS = (0.25e-3, 1e-3, 4e-3)
DEFAULT_PREVENTER_CAPS = (8, 32, 128)

DEFAULT_CLUSTERS = (1, 4, 8, 16, 32)


def _sysbench_experiment(spec: CellSpec,
                         node: HostNodeConfig = HostNodeConfig(),
                         ) -> SingleVmExperiment:
    """Fig. 9's guest on one host built from ``node``."""
    scale = spec.scale
    return SingleVmExperiment(
        actual_mib=100 / scale,
        cluster_config=ClusterConfig(hosts=(node,), seed=spec.seed),
        guest_config=scaled_guest_config(512, scale),
        files=[("sysbench.dat", mib_pages(200 / scale))],
    )


def build_dirty_bit_sweep(*, scale: int = 1) -> Sweep:
    """Declare the dirty-bit pair: 2013 hardware vs Haswell."""
    cells = tuple(
        CellSpec(
            experiment_id="ablation-dirty-bit",
            cell_id="hw-dirty-bit" if hw_bit else "no-dirty-bit",
            scale=scale,
            config=ConfigName.BASELINE.value,
            params={"hardware_dirty_bit": hw_bit, "label": label},
        )
        for label, hw_bit in DIRTY_BIT_CASES)
    return Sweep("ablation-dirty-bit", cells)


def dirty_bit_cell(spec: CellSpec) -> RunResult:
    """Baseline swapping with/without a guest-page dirty bit."""
    scale = spec.scale
    experiment = _sysbench_experiment(spec, HostNodeConfig(
        host=HostConfig(hardware_dirty_bit=spec.params["hardware_dirty_bit"])))
    config = standard_configs([ConfigName(spec.config)])[0]
    return experiment.run(config, SysbenchFileRead(
        file_pages=mib_pages(200 / scale), iterations=4))


def assemble_dirty_bit(sweep: Sweep,
                       results: Mapping[str, RunResult]) -> FigureResult:
    """Build the dirty-bit ablation table from cells."""
    scale = sweep.cells[0].scale
    rows: dict = {}
    for cell in sweep.cells:
        result = results[cell.cell_id]
        rows[cell.params["label"]] = {
            "runtime": result.runtime,
            "swap_sectors_written": result.counters.get(
                "swap_sectors_written"),
            "silent_swap_writes": result.counters.get("silent_swap_writes"),
        }
    table = Table(
        f"Ablation (scale=1/{scale}): hardware dirty bit for guest pages "
        f"(baseline swapping, sysbench x4)",
        ["configuration", "runtime [s]", "swap sectors written",
         "silent writes"],
    )
    for label, row in rows.items():
        table.add_row(label, round(row["runtime"], 1),
                      row["swap_sectors_written"],
                      row["silent_swap_writes"])
    return FigureResult("ablation-dirty-bit", rows, table.render())


def build_ssd_sweep(*, scale: int = 1) -> Sweep:
    """Declare the 2x2 grid: disk technology x configuration."""
    cells = tuple(
        CellSpec(
            experiment_id="ablation-ssd",
            cell_id=f"{disk_kind}/{name.value}",
            scale=scale,
            config=name.value,
            params={"disk_kind": disk_kind},
        )
        for disk_kind in SSD_DISK_KINDS
        for name in SSD_CONFIGS)
    return Sweep("ablation-ssd", cells)


def ssd_cell(spec: CellSpec) -> RunResult:
    """Run sysbench x4 on one (disk technology, config) cell."""
    scale = spec.scale
    experiment = _sysbench_experiment(spec, HostNodeConfig(
        disk=DiskConfig(kind=spec.params["disk_kind"])))
    config = standard_configs([ConfigName(spec.config)])[0]
    return experiment.run(config, SysbenchFileRead(
        file_pages=mib_pages(200 / scale), iterations=4))


def assemble_ssd(sweep: Sweep,
                 results: Mapping[str, RunResult]) -> FigureResult:
    """Build the disk-technology ablation table from cells."""
    scale = sweep.cells[0].scale
    rows: dict = {}
    for cell in sweep.cells:
        result = results[cell.cell_id]
        rows[cell.cell_id] = {
            "runtime": result.runtime,
            "swap_sectors_written": result.counters.get(
                "swap_sectors_written"),
        }
    table = Table(
        f"Ablation (scale=1/{scale}): disk technology (sysbench x4)",
        ["disk", "config", "runtime [s]", "swap sectors written"],
    )
    for cell in sweep.cells:
        row = rows[cell.cell_id]
        table.add_row(cell.params["disk_kind"], cell.config,
                      round(row["runtime"], 1),
                      row["swap_sectors_written"])
    return FigureResult("ablation-ssd", rows, table.render())


def _preventer_key(window: float, cap: int) -> str:
    return f"{window * 1e3:g}ms/{cap}"


def build_preventer_sweep(
    *,
    scale: int = 1,
    windows: Sequence[float] = DEFAULT_PREVENTER_WINDOWS,
    caps: Sequence[int] = DEFAULT_PREVENTER_CAPS,
) -> Sweep:
    """Declare the window x cap sensitivity grid."""
    cells = tuple(
        CellSpec(
            experiment_id="ablation-preventer",
            cell_id=_preventer_key(window, cap),
            scale=scale,
            config=ConfigName.VSWAPPER.value,
            params={"window": window, "cap": cap},
        )
        for window in windows
        for cap in caps)
    return Sweep("ablation-preventer", cells)


def preventer_cell(spec: CellSpec) -> RunResult:
    """Run sysbench-then-alloc under one (window, cap) Preventer."""
    scale = spec.scale
    vswapper = replace(
        VSwapperConfig.full(),
        preventer_window=spec.params["window"],
        preventer_max_pages=spec.params["cap"],
    )
    config = ConfigSpec(ConfigName(spec.config), vswapper, False)
    experiment = _sysbench_experiment(spec)
    return experiment.run(config, SysbenchThenAlloc(
        file_pages=mib_pages(200 / scale),
        alloc_pages=mib_pages(200 / scale)))


def assemble_preventer(sweep: Sweep,
                       results: Mapping[str, RunResult]) -> FigureResult:
    """Build the Preventer sensitivity table from cells."""
    scale = sweep.cells[0].scale
    rows: dict = {}
    for cell in sweep.cells:
        result = results[cell.cell_id]
        rows[cell.cell_id] = {
            "runtime": result.runtime,
            "remaps": result.counters.get("preventer_remaps"),
            "merges": result.counters.get("preventer_merges"),
        }
    table = Table(
        f"Ablation (scale=1/{scale}): Preventer window/cap "
        f"(sysbench-then-alloc)",
        ["window [ms]", "page cap", "runtime [s]", "remaps", "merges"],
    )
    for cell in sweep.cells:
        row = rows[cell.cell_id]
        table.add_row(cell.params["window"] * 1e3, cell.params["cap"],
                      round(row["runtime"], 2),
                      row["remaps"], row["merges"])
    return FigureResult("ablation-preventer", rows, table.render())


def build_cluster_sweep(
    *,
    scale: int = 1,
    clusters: Sequence[int] = DEFAULT_CLUSTERS,
) -> Sweep:
    """Declare one cell per swap-readahead cluster size."""
    cells = tuple(
        CellSpec(
            experiment_id="ablation-cluster",
            cell_id=str(cluster),
            scale=scale,
            config=ConfigName.BASELINE.value,
            params={"cluster": cluster},
        )
        for cluster in clusters)
    return Sweep("ablation-cluster", cells)


def cluster_cell(spec: CellSpec) -> RunResult:
    """Run baseline sysbench x4 with one readahead cluster size."""
    scale = spec.scale
    experiment = _sysbench_experiment(spec, HostNodeConfig(
        host=HostConfig(swap_cluster_pages=spec.params["cluster"])))
    config = standard_configs([ConfigName(spec.config)])[0]
    return experiment.run(config, SysbenchFileRead(
        file_pages=mib_pages(200 / scale), iterations=4))


def assemble_cluster(sweep: Sweep,
                     results: Mapping[str, RunResult]) -> FigureResult:
    """Build the cluster-size ablation table from cells."""
    scale = sweep.cells[0].scale
    rows: dict = {}
    for cell in sweep.cells:
        result = results[cell.cell_id]
        rows[cell.cell_id] = {
            "runtime": result.runtime,
            "guest_faults": result.counters.get("guest_context_faults"),
            "swap_sectors_read": result.counters.get("swap_sectors_read"),
        }
    table = Table(
        f"Ablation (scale=1/{scale}): swap readahead cluster size "
        f"(baseline, sysbench x4)",
        ["cluster [pages]", "runtime [s]", "guest faults",
         "swap sectors read"],
    )
    for cell in sweep.cells:
        row = rows[cell.cell_id]
        table.add_row(cell.params["cluster"], round(row["runtime"], 1),
                      row["guest_faults"], row["swap_sectors_read"])
    return FigureResult("ablation-cluster", rows, table.render())
