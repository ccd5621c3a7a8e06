"""Figure 4: ten phased MapReduce guests, average completion time.

Paper: baseline 153s, balloon+base 167s, vswapper 88s, balloon+vswap
97s -- the VSwapper configurations are up to ~2x faster than baseline
ballooning under changing load.
"""

from benchmarks.conftest import run_once
from repro.experiments.registry import run_experiment


def test_bench_fig04(benchmark, bench_scale, record_result, bench_store):
    result = run_once(benchmark, lambda: run_experiment(
        "fig4", scale=bench_scale, store=bench_store))
    series = result.series
    note = (
        "paper: baseline 153s | balloon+base 167s | vswapper 88s | "
        "balloon+vswap 97s"
    )
    record_result(result, note)
    vsw = series["vswapper"]["average_runtime"]
    both = series["balloon+vswap"]["average_runtime"]
    base = series["baseline"]["average_runtime"]
    balloon = series["balloon+base"]["average_runtime"]
    # VSwapper configurations clearly beat non-VSwapper ones.
    assert vsw < base
    assert vsw < balloon
    assert both < balloon
    # ...by a large factor at ten guests (paper: up to 2x).
    assert max(base, balloon) > 1.3 * min(vsw, both)
