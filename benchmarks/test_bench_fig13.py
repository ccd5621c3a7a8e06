"""Figure 13: Eclipse (DaCapo) vs memory limit.

Paper: ballooning is 1-4% faster while it runs but Eclipse is killed
below 448MB; baseline is 0.97-1.28x of vswapper.
"""

from benchmarks.conftest import run_once
from repro.experiments.registry import run_experiment

SWEEP = (512, 448, 384, 320, 256)


def test_bench_fig13(benchmark, bench_scale, record_result, bench_store):
    result = run_once(benchmark, lambda: run_experiment(
        "fig13", scale=bench_scale, store=bench_store, memory_sweep_mib=SWEEP))
    record_result(
        result,
        "paper: balloon killed below 448MB; baseline up to 1.28x of "
        "vswapper at low memory")
    base = result.series["baseline"]
    vsw = result.series["vswapper"]
    balloon = result.series["balloon+base"]

    assert not balloon["512"]["crashed"]
    assert not balloon["448"]["crashed"]
    assert balloon["384"]["crashed"]
    assert balloon["256"]["crashed"]

    # The GC pathology hurts the baseline most at low memory.
    assert base["256"]["runtime"] > vsw["256"]["runtime"]
    assert base["256"]["runtime"] > base["512"]["runtime"] * 1.2
    # vswapper survives everywhere.
    assert not vsw["256"]["crashed"]
