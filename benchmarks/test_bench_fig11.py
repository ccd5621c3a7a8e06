"""Figure 11: pbzip2 disk traffic and reclaim scanning vs memory.

Paper: (a) VSwapper greatly reduces disk operations; (b) the baseline's
write component is largely eliminated (good for SSDs); (c) pages
scanned by reclaim grow with pressure.
"""

from benchmarks.conftest import run_once
from repro.experiments.registry import run_experiment
from repro.experiments.runner import ConfigName

SWEEP = (512, 384, 256, 192, 128)
CONFIGS = (ConfigName.BASELINE, ConfigName.MAPPER, ConfigName.VSWAPPER)


def test_bench_fig11(benchmark, bench_scale, record_result, bench_store):
    result = run_once(benchmark, lambda: run_experiment(
        "fig11", scale=bench_scale, store=bench_store, memory_sweep_mib=SWEEP,
        config_names=CONFIGS))
    result.figure_id = "fig11"
    record_result(
        result,
        "paper: vswapper removes most swap writes; disk ops grow with "
        "pressure, vswapper lowest")
    base = result.series["baseline"]
    vsw = result.series["vswapper"]

    for memory in ("384", "256", "192", "128"):
        assert vsw[memory]["disk_ops"] < base[memory]["disk_ops"]
        assert (vsw[memory]["swap_sectors_written"]
                < base[memory]["swap_sectors_written"] / 2)
        assert base[memory]["pages_scanned"] > 0
    # Traffic grows monotonically-ish with pressure for the baseline.
    assert (base["128"]["swap_sectors_written"]
            > base["384"]["swap_sectors_written"])
