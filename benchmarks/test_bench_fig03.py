"""Figure 3: first sequential read of a 200MB file, four configs.

Paper: baseline 38.7s, balloon 3.1s, vswapper 4.0s, balloon+vswapper
3.1s -- baseline 12.5x slower than ballooning; VSwapper within 1.3x.
"""

from benchmarks.conftest import run_once
from repro.experiments.fig09 import build_fig03_sweep
from repro.experiments.registry import run_experiment


def test_bench_fig03(benchmark, bench_scale, record_result, bench_store):
    result = run_once(benchmark, lambda: run_experiment(
        "fig3", scale=bench_scale, store=bench_store))
    series = result.series
    note = (
        "paper: baseline 38.7s | balloon+base 3.1s | vswapper 4.0s | "
        "balloon+vswap 3.1s\n"
        f"shape: baseline/vswapper = "
        f"{series['baseline'] / series['vswapper']:.1f}x (paper 9.7x), "
        f"vswapper/balloon = "
        f"{series['vswapper'] / series['balloon+base']:.2f}x (paper 1.29x)"
    )
    record_result(result, note, sweep=build_fig03_sweep(scale=bench_scale))
    assert series["baseline"] > 3 * series["vswapper"]
    assert series["vswapper"] < 2 * series["balloon+base"]
    assert series["balloon+vswap"] < 1.5 * series["balloon+base"]
