"""Figure 15: Mapper-tracked pages vs guest page cache over time.

Paper: the size the Mapper tracks coincides with the guest page cache
excluding dirty pages, occasionally overshooting when the guest
repurposes cache pages.
"""

from benchmarks.conftest import run_once
from repro.experiments.registry import run_experiment


def test_bench_fig15(benchmark, bench_scale, record_result, bench_store):
    result = run_once(benchmark, lambda: run_experiment(
        "fig15", scale=bench_scale, store=bench_store))
    record_result(
        result,
        "paper: tracked size rides the clean-page-cache curve")
    clean = result.series["page_cache_clean"]
    tracked = result.series["mapper_tracked"]
    assert len(tracked) >= 5
    # Steady state: tracked stays within a band around the clean cache.
    steady = range(len(tracked) // 2, len(tracked))
    for i in steady:
        assert tracked[i] >= 0.5 * clean[i]
        assert tracked[i] <= 2.0 * max(clean[i], 1)
