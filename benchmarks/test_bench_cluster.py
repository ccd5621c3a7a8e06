"""Cluster: consolidation density vs per-guest slowdown on four nodes.

Expected shapes: the unloaded singleton is the fastest run of each
configuration; slowdown grows with fleet density; at full admission
capacity the baseline fleet exceeds a node swap budget (the fleet does
not fit) while VSwapper still completes; packing policies trigger
pressure-driven migrations that spreading policies avoid.
"""

from benchmarks.conftest import run_once
from repro.experiments.registry import run_experiment


def test_bench_cluster(benchmark, bench_scale, record_result, bench_store):
    result = run_once(benchmark, lambda: run_experiment(
        "cluster", scale=bench_scale, store=bench_store))
    record_result(
        result,
        "density capacity: baseline overruns its node swap budget at "
        "full admission capacity; vswapper completes")
    series = result.series

    for config in ("baseline", "vswapper"):
        solo = series[config]["solo"]["average_runtime"]
        assert solo is not None
        # The unloaded singleton is the fastest run: every completed
        # fleet is at least as slow (tolerance for averaging noise).
        for policy in ("first-fit", "balance", "pack"):
            rows = series[config][policy]
            slowdowns = [rows[n]["slowdown"] for n in ("4", "8", "16")
                         if rows[n]["slowdown"] is not None]
            assert slowdowns and min(slowdowns) >= 0.95

    # Full density: the baseline fleet overruns a node swap budget
    # under every policy; VSwapper's lighter swap footprint completes.
    for policy in ("first-fit", "balance", "pack"):
        assert series["baseline"][policy]["16"]["crashed"]
        assert not series["vswapper"][policy]["16"]["crashed"]

    # Packing concentrates swap pressure: first-fit piles guests onto
    # node0 and the controller evacuates; balance never has to.
    assert series["baseline"]["first-fit"]["8"]["migrations"] > 0
    assert series["baseline"]["balance"]["8"]["migrations"] == 0
