"""Ablation benches for the design choices DESIGN.md calls out."""

from benchmarks.conftest import run_once
from repro.experiments.registry import run_experiment


def test_bench_ablation_dirty_bit(benchmark, bench_scale, record_result, bench_store):
    """A guest-page dirty bit alone removes most of the swap rewrite
    traffic the paper blames on 2013-era hardware."""
    result = run_once(benchmark,
                      lambda: run_experiment(
                          "ablation-dirty-bit", scale=bench_scale, store=bench_store))
    record_result(result)
    without = result.series["no dirty bit (2013 hw)"]
    with_bit = result.series["hardware dirty bit (Haswell)"]
    assert (with_bit["swap_sectors_written"]
            < without["swap_sectors_written"] / 2)
    assert with_bit["runtime"] < without["runtime"]


def test_bench_ablation_ssd(benchmark, bench_scale, record_result, bench_store):
    """SSD swap narrows but does not erase VSwapper's advantage; the
    write elimination itself still matters for flash endurance."""
    result = run_once(benchmark,
                      lambda: run_experiment(
                          "ablation-ssd", scale=bench_scale, store=bench_store))
    record_result(result)
    rows = result.series
    hdd_gain = (rows["hdd/baseline"]["runtime"]
                / rows["hdd/vswapper"]["runtime"])
    ssd_gain = (rows["ssd/baseline"]["runtime"]
                / rows["ssd/vswapper"]["runtime"])
    assert hdd_gain > ssd_gain > 1.0
    # Writes nearly vanish (residual anon traffic from boot history);
    # on flash that is an endurance win beyond the latency numbers.
    assert (rows["ssd/vswapper"]["swap_sectors_written"]
            < rows["ssd/baseline"]["swap_sectors_written"] / 20)


def test_bench_ablation_preventer_params(benchmark, bench_scale,
                                         record_result, bench_store):
    """The paper's 1ms/32-page operating point is on the flat part of
    the parameter space for whole-page workloads."""
    result = run_once(
        benchmark,
        lambda: run_experiment(
            "ablation-preventer", scale=bench_scale, store=bench_store,
            windows=(0.25e-3, 1e-3), caps=(8, 32)))
    record_result(result)
    rows = result.series
    for row in rows.values():
        assert row["remaps"] > 0
    # Whole-page overwrites complete instantly, so window/cap barely
    # move the result (they matter for partial-write workloads).
    runtimes = [row["runtime"] for row in rows.values()]
    assert max(runtimes) < 1.5 * min(runtimes)


def test_bench_ablation_cluster(benchmark, bench_scale, record_result, bench_store):
    """Swap readahead matters: no clustering multiplies faults."""
    result = run_once(
        benchmark,
        lambda: run_experiment(
            "ablation-cluster", scale=bench_scale, store=bench_store,
            clusters=(1, 8, 32)))
    record_result(result)
    rows = result.series
    assert rows["1"]["guest_faults"] > 2 * rows["8"]["guest_faults"]
