"""Figure 5: pbzip2 runtime vs actual memory, with over-ballooning.

Paper: ballooning performs best while operational but the guest kills
the workload below 240MB; baseline degrades up to 1.66x; VSwapper
stays within 1.03-1.13x of ballooning.
"""

from benchmarks.conftest import run_once
from repro.experiments.registry import run_experiment

SWEEP = (512, 384, 256, 240, 192, 128)


def test_bench_fig05(benchmark, bench_scale, record_result, bench_store):
    result = run_once(benchmark, lambda: run_experiment(
        "fig5", scale=bench_scale, store=bench_store, memory_sweep_mib=SWEEP))
    record_result(
        result,
        "paper: balloon best while alive, killed below 240MB; baseline "
        "up to 1.66x slower than balloon")
    base = result.series["baseline"]
    vsw = result.series["vswapper"]
    balloon = result.series["balloon+base"]

    # Over-ballooning kills the workload below its floor, not above.
    assert not balloon["512"]["crashed"]
    assert not balloon["384"]["crashed"]
    assert balloon["192"]["crashed"]
    assert balloon["128"]["crashed"]

    # Pressure monotonically hurts the baseline.
    assert base["128"]["runtime"] > base["512"]["runtime"] * 1.3

    # VSwapper tracks ballooning closely where both run.
    assert vsw["384"]["runtime"] < balloon["384"]["runtime"] * 1.25

    # ...and keeps running where ballooning crashed.
    assert not vsw["128"]["crashed"]
    assert vsw["128"]["runtime"] < base["128"]["runtime"]
