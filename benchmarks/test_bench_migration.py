"""Live-migration study (paper Section 7 future work, implemented).

The Mapper's page<->block knowledge lets a hypervisor migrate
references instead of clean file-backed contents.
"""

from benchmarks.conftest import run_once
from repro.experiments.registry import run_experiment


def test_bench_migration_study(benchmark, bench_scale, record_result, bench_store):
    result = run_once(benchmark,
                      lambda: run_experiment(
                          "migration-study", scale=bench_scale, store=bench_store))
    record_result(
        result,
        "paper sec 7: 'avoid the transfer of free and clean guest "
        "pages' -- quantified here")
    rows = result.series
    assert rows["vswapper"]["savings"] > 0.5
    assert (rows["vswapper"]["vswapper_mib"]
            < rows["baseline"]["baseline_mib"])
