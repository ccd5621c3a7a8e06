"""Section 5.3: VSwapper's overheads and limitations.

Two measurements:

* **Zero pressure** (full grant): VSwapper's pure overhead -- the
  mmap-based I/O interposition and COW exits.  The paper reports up to
  3.5 % slowdown and <= 14 MB of Mapper metadata.
* **Light pressure** (grant a few percent under the guest's footprint):
  reclaim runs without real swapping, exposing scan-length differences
  (the paper observes the Mapper up to doubling clock traversals).

The sweep is a 2x2 grid: pressure level x {baseline, vswapper}.
"""

from __future__ import annotations

from typing import Mapping

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
from repro.units import MIB, mib_pages
from repro.workloads.pbzip import PbzipCompress

#: Pressure label -> actual-memory grant (MiB).
SEC53_PRESSURES = (("zero", 512), ("light", 480))

SEC53_CONFIGS = (ConfigName.BASELINE, ConfigName.VSWAPPER)


def build_sec53_sweep(*, scale: int = 1) -> Sweep:
    """Declare the 2x2 grid: pressure level x configuration."""
    cells = tuple(
        CellSpec(
            experiment_id="sec53",
            cell_id=f"{name.value}@{pressure}",
            scale=scale,
            config=name.value,
            params={"actual_mib": actual_mib, "pressure": pressure},
        )
        for pressure, actual_mib in SEC53_PRESSURES
        for name in SEC53_CONFIGS)
    return Sweep("sec53", cells)


def sec53_cell(spec: CellSpec) -> RunResult:
    """Run pbzip2 under one (pressure, configuration) cell."""
    scale = spec.scale
    experiment = SingleVmExperiment(
        actual_mib=spec.params["actual_mib"] / scale,
        cluster_config=ClusterConfig(seed=spec.seed),
        guest_config=scaled_guest_config(512, scale),
        files=[
            ("pbzip-input", mib_pages(800 / scale)),
            ("pbzip-output", mib_pages(220 / scale)),
        ],
    )
    config = standard_configs([ConfigName(spec.config)])[0]
    workload = PbzipCompress(
        input_pages=mib_pages(800 / scale),
        min_resident_pages=mib_pages(220 / scale),
    )
    return experiment.run(config, workload)


def assemble_sec53(sweep: Sweep,
                   results: Mapping[str, RunResult]) -> FigureResult:
    """Build the Section 5.3 overhead table from cells."""
    scale = sweep.cells[0].scale
    by_cell = {
        (cell.params["pressure"], cell.config): results[cell.cell_id]
        for cell in sweep.cells
    }
    zbase = by_cell[("zero", ConfigName.BASELINE.value)]
    zvsw = by_cell[("zero", ConfigName.VSWAPPER.value)]
    lbase = by_cell[("light", ConfigName.BASELINE.value)]
    lvsw = by_cell[("light", ConfigName.VSWAPPER.value)]

    slowdown = zvsw.runtime / zbase.runtime
    metadata_mib = zvsw.counters.get("mapper_tracked_peak", 0) * 200 / MIB
    scan_ratio = (
        lvsw.counters.get("pages_scanned", 0)
        / max(1, lbase.counters.get("pages_scanned", 0)))

    table = Table(
        f"Section 5.3 (scale=1/{scale}): VSwapper overheads",
        ["metric", "paper", "this repro"],
    )
    table.add_row("zero-pressure slowdown", "<= 1.035x", f"{slowdown:.3f}x")
    table.add_row("mapper metadata", "<= 14 MB",
                  f"{metadata_mib:.1f} MB (peak tracked x 200B)")
    table.add_row("COW break exits (zero pressure)", "-",
                  zvsw.counters.get("mapper_cow_breaks", 0))
    table.add_row("light-pressure scan ratio (vswapper/baseline)",
                  "up to 2x", f"{scan_ratio:.2f}x")
    table.add_row("light-pressure pages scanned (baseline)", "-",
                  lbase.counters.get("pages_scanned", 0))
    table.add_row("light-pressure pages scanned (vswapper)", "-",
                  lvsw.counters.get("pages_scanned", 0))
    series = {
        "slowdown": slowdown,
        "metadata_mib": metadata_mib,
        "scan_ratio": scan_ratio,
        "zero_baseline_runtime": zbase.runtime,
        "zero_vswapper_runtime": zvsw.runtime,
        "light_baseline_scanned": lbase.counters.get("pages_scanned", 0),
        "light_vswapper_scanned": lvsw.counters.get("pages_scanned", 0),
    }
    return FigureResult("sec5.3", series, table.render())
