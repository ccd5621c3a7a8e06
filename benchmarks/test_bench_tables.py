"""Tables 1 and 2.

Table 1: VSwapper lines of code (paper: Mapper 409, Preventer 1974,
total 2383) next to this reproduction's LoC.

Table 2: the VMware-profile experiment (paper: disabling the balloon
turns a 25s run into 78s and quadruples swap traffic).
"""

from benchmarks.conftest import run_once
from repro.experiments.registry import run_experiment


def test_bench_table1(benchmark, record_result, bench_store):
    result = run_once(benchmark,
                      lambda: run_experiment("table1", store=bench_store))
    record_result(result)
    ours = result.series["repro"]
    assert ours["Mapper"] > 0
    assert ours["Preventer"] > 0
    assert ours["sum"] == (ours["Mapper"] + ours["Preventer"]
                           + ours["shared facade"])


def test_bench_table2(benchmark, bench_scale, record_result, bench_store):
    result = run_once(benchmark,
                      lambda: run_experiment(
                          "table2", scale=bench_scale, store=bench_store))
    record_result(
        result,
        "paper: balloon enabled 25s / disabled 78s (3.1x); "
        "swap sectors ~4x with the balloon disabled")
    enabled = result.series["balloon enabled"]
    disabled = result.series["balloon disabled"]
    assert disabled["runtime"] > 2 * enabled["runtime"]
    assert (disabled["swap_write_sectors"]
            > 3 * max(1, enabled["swap_write_sectors"]))
    assert disabled["major_faults"] > enabled["major_faults"]
