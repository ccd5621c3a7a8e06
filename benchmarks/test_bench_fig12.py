"""Figure 12: Kernbench under memory pressure.

Paper: at 192MB, baseline is ~15% slower and ballooning ~4-5% slower
than the full-memory run; vswapper is within 0.99-1.01x of ballooning;
the Preventer performs up to ~80K remaps.
"""

from benchmarks.conftest import run_once
from repro.experiments.registry import run_experiment

SWEEP = (512, 384, 256, 192)


def test_bench_fig12(benchmark, bench_scale, record_result, bench_store):
    result = run_once(benchmark, lambda: run_experiment(
        "fig12", scale=bench_scale, store=bench_store, memory_sweep_mib=SWEEP))
    record_result(
        result,
        "paper: baseline 15% slower at 192MB vs 4-5% for balloon; "
        "vswapper ~= balloon; up to 80K preventer remaps")
    base = result.series["baseline"]
    vsw = result.series["vswapper"]
    balloon = result.series["balloon+base"]

    base_slowdown = base["192"]["runtime"] / base["512"]["runtime"]
    vsw_slowdown = vsw["192"]["runtime"] / vsw["512"]["runtime"]
    # Baseline suffers more than vswapper under pressure.
    assert base_slowdown > vsw_slowdown
    # vswapper stays within a few percent of ballooning.
    assert vsw["192"]["runtime"] < balloon["192"]["runtime"] * 1.05
    # The Preventer remaps grow as memory shrinks.
    assert vsw["192"]["preventer_remaps"] > vsw["384"]["preventer_remaps"] > 0
    # ...and eliminate the false reads the others pay for.
    assert vsw["192"]["false_reads"] == 0
    assert base["192"]["false_reads"] > 0
