"""Sections 5.3 (overheads) and 5.4 (Windows guests).

Paper 5.3: <= 3.5% slowdown with plentiful memory, <= 14MB Mapper
metadata.  Paper 5.4: Windows sysbench 302s -> 79s; bzip2 306s -> 149s.
"""

from benchmarks.conftest import run_once
from repro.experiments.registry import run_experiment


def test_bench_sec53_overheads(benchmark, bench_scale, record_result, bench_store):
    result = run_once(benchmark,
                      lambda: run_experiment(
                          "sec5.3", scale=bench_scale, store=bench_store))
    record_result(result)
    # Zero-pressure overhead within the paper's bound.
    assert result.series["slowdown"] < 1.035
    # Metadata footprint within the paper's bound (scaled runs are
    # smaller, so the full-scale 14MB bound holds a fortiori).
    assert result.series["metadata_mib"] < 14.0


def test_bench_sec54_windows(benchmark, bench_scale, record_result, bench_store):
    result = run_once(benchmark,
                      lambda: run_experiment(
                          "sec5.4", scale=bench_scale, store=bench_store))
    record_result(
        result,
        "paper: sysbench 302s -> 79s (3.8x); bzip2 306s -> 149s (2.1x)")
    without = result.series["without vswapper"]
    with_v = result.series["with vswapper"]
    assert with_v["sysbench_runtime"] * 2 < without["sysbench_runtime"]
    assert with_v["bzip_runtime"] < without["bzip_runtime"]
    # The Windows zero-page thread generates false reads VSwapper kills.
    assert without["sysbench_false_reads"] > 0
