"""Figure 10: false swap reads on an allocate-and-touch microbenchmark.

Paper: enabling the Preventer more than doubles performance; the
runtime is tightly correlated with disk operations; the balloon
configuration crashed from over-ballooning.
"""

from benchmarks.conftest import run_once
from repro.experiments.registry import run_experiment


def test_bench_fig10(benchmark, bench_scale, record_result, bench_store):
    result = run_once(benchmark, lambda: run_experiment(
        "fig10", scale=bench_scale, store=bench_store))
    record_result(
        result,
        "paper: preventer >= 2x faster than vswapper-without-preventer; "
        "balloon crashed (over-ballooning)")
    series = result.series
    assert series["balloon+base"]["crashed"]
    assert series["vswapper"]["runtime"] * 2 < series["mapper"]["runtime"]
    assert series["vswapper"]["disk_ops"] < series["mapper"]["disk_ops"]
    assert series["vswapper"]["false_reads"] == 0
    assert series["mapper"]["false_reads"] > 0
    assert series["baseline"]["false_reads"] > 0
