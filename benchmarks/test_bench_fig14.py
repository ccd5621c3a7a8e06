"""Figure 14: phased multi-guest sweep (1 to 10 guests).

Paper: memory pressure begins around seven guests; from there the
baseline and balloon-only configurations degrade steeply (up to 1.84x
the combined configuration) while the VSwapper ones stay within 1.11x.
"""

from benchmarks.conftest import run_once
from repro.experiments.registry import run_experiment

GUEST_COUNTS = (1, 4, 7, 10)


def test_bench_fig14(benchmark, bench_scale, record_result, bench_store):
    result = run_once(benchmark, lambda: run_experiment(
        "fig14", scale=bench_scale, store=bench_store, guest_counts=GUEST_COUNTS))
    record_result(
        result,
        "paper: pressure from ~7 guests; balloon-only/baseline up to "
        "1.84x/1.79x of balloon+vswapper; vswapper within 1.11x")
    series = result.series

    def avg(config, n):
        return series[config][str(n)]["average_runtime"]

    # No pressure at one guest: all configurations comparable.
    singles = [avg(c, 1) for c in series]
    assert max(singles) < 1.35 * min(singles)

    # Heavy pressure at ten guests: vswapper configurations win big.
    assert avg("baseline", 10) > 1.3 * avg("vswapper", 10)
    assert avg("balloon+base", 10) > 1.3 * avg("balloon+vswap", 10)

    # Degradation grows with the number of guests for the baseline.
    assert avg("baseline", 10) > avg("baseline", 7) > avg("baseline", 1)
