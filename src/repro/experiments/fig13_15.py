"""Figures 13 and 15: the DaCapo Eclipse workload.

Figure 13 sweeps the actual memory grant (512 down to 256 MB) under the
JVM's cyclic garbage-collection access pattern -- the classic LRU
pathology.  Ballooning is a few percent faster while it survives but
the guest kills Eclipse once the grant drops below its footprint.

Figure 15 samples, over time, the guest page cache size (total and
excluding dirty pages) against the number of pages the Swap Mapper
tracks: the tracked set should ride the clean-cache curve.  Its single
cell carries the sampled :class:`~repro.metrics.timeline.Timeline`
inside the ``RunResult``, which the exec layer freezes (gauges dropped)
so it crosses process and storage boundaries intact.

Figure 13 series are keyed ``series[config][str(actual_mib)]``.
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
from repro.workloads.dacapo import EclipseWorkload

FIG13_CONFIGS = (
    ConfigName.BASELINE,
    ConfigName.MAPPER,
    ConfigName.VSWAPPER,
    ConfigName.BALLOON_BASELINE,
)

#: The paper's X axis (MiB of actual memory).
DEFAULT_MEMORY_SWEEP = (512, 448, 384, 320, 256)


def make_eclipse(scale: int) -> EclipseWorkload:
    """An Eclipse workload sized for ``scale``."""
    return EclipseWorkload(
        heap_pages=mib_pages(128 / scale),
        jvm_resident_pages=mib_pages(288 / scale),
        workspace_pages=mib_pages(160 / scale),
        min_resident_pages=mib_pages(416 / scale),
        work_units=max(10, 220 // scale),
    )


def _experiment(scale: int, actual_mib: float, seed: int = 1,
                sample_interval: float | None = None) -> SingleVmExperiment:
    return SingleVmExperiment(
        actual_mib=actual_mib / scale,
        cluster_config=ClusterConfig(seed=seed),
        guest_config=scaled_guest_config(512, scale),
        files=[("eclipse-workspace", mib_pages(160 / scale))],
        sample_interval=sample_interval,
    )


def build_fig13_sweep(
    *,
    scale: int = 1,
    memory_sweep_mib: Sequence[int] = DEFAULT_MEMORY_SWEEP,
    config_names: Sequence[ConfigName] = FIG13_CONFIGS,
) -> Sweep:
    """Declare the grid: configuration x actual-memory grant."""
    cells = tuple(
        CellSpec(
            experiment_id="fig13",
            cell_id=f"{spec.name.value}@{actual_mib}MiB",
            scale=scale,
            config=spec.name.value,
            params={"actual_mib": actual_mib},
        )
        for spec in standard_configs(config_names)
        for actual_mib in memory_sweep_mib)
    return Sweep("fig13", cells)


def fig13_cell(spec: CellSpec) -> RunResult:
    """Run Eclipse under one (configuration, grant) cell."""
    experiment = _experiment(
        spec.scale, spec.params["actual_mib"], seed=spec.seed)
    config = standard_configs([ConfigName(spec.config)])[0]
    return experiment.run(config, make_eclipse(spec.scale))


def assemble_fig13(sweep: Sweep,
                   results: Mapping[str, RunResult]) -> FigureResult:
    """Build Figure 13's runtime-vs-limit table from cells."""
    scale = sweep.cells[0].scale
    series: dict = {}
    for cell in sweep.cells:
        result = results[cell.cell_id]
        series.setdefault(cell.config, {})[str(cell.params["actual_mib"])] = {
            "runtime": result.runtime,
            "crashed": result.crashed,
        }

    table = Table(
        f"Figure 13 (scale=1/{scale}): Eclipse (DaCapo) vs memory limit",
        ["config", "memory [MiB]", "runtime [s]"],
    )
    for config, by_memory in series.items():
        for actual_mib, row in by_memory.items():
            table.add_row(
                config, actual_mib,
                "killed (OOM)" if row["crashed"]
                else round(row["runtime"], 1))
    return FigureResult("fig13", series, table.render())


def build_fig15_sweep(*, scale: int = 1, actual_mib: float = 320,
                      sample_interval: float = 2.0) -> Sweep:
    """Declare Figure 15's single sampled-timeline cell."""
    cell = CellSpec(
        experiment_id="fig15",
        cell_id=f"{ConfigName.VSWAPPER.value}@{actual_mib:g}MiB",
        scale=scale,
        config=ConfigName.VSWAPPER.value,
        params={"actual_mib": actual_mib,
                "sample_interval": sample_interval},
    )
    return Sweep("fig15", (cell,))


def fig15_cell(spec: CellSpec) -> RunResult:
    """Run the sampled Eclipse cell (timeline attached)."""
    scale = spec.scale
    experiment = _experiment(
        scale, spec.params["actual_mib"], seed=spec.seed,
        sample_interval=spec.params["sample_interval"] / scale)
    config = standard_configs([ConfigName(spec.config)])[0]
    return experiment.run(config, make_eclipse(scale))


def assemble_fig15(sweep: Sweep,
                   results: Mapping[str, RunResult]) -> FigureResult:
    """Build Figure 15's tracked-vs-cache table from the sampled cell."""
    cell = sweep.cells[0]
    scale = cell.scale
    timeline = results[cell.cell_id].timeline
    times, cache = timeline.series("guest_page_cache")
    _t2, clean = timeline.series("guest_page_cache_clean")
    _t3, tracked = timeline.series("mapper_tracked")

    table = Table(
        f"Figure 15 (scale=1/{scale}): Mapper-tracked pages vs guest "
        f"page cache over time",
        ["time [s]", "page cache [pages]", "excl. dirty [pages]",
         "mapper tracked [pages]"],
    )
    for t, total, cln, trk in zip(times, cache, clean, tracked):
        table.add_row(round(t, 1), int(total), int(cln), int(trk))
    series = {
        "time": times,
        "page_cache": cache,
        "page_cache_clean": clean,
        "mapper_tracked": tracked,
    }
    return FigureResult("fig15", series, table.render())
