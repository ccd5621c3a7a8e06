"""Trace-overhead guard: disabled tracing must not slow the hot paths.

Two complementary checks.  The microbenchmark times the guarded no-op
emit pattern (`if trace.enabled: trace.emit(...)`) against a bare loop
and bounds the per-call overhead -- the pattern every hot fault/IO site
uses.  The macro check runs one real cell with and without tracing and
asserts the simulated results are identical, so tracing can never bend
the physics it observes.
"""

import time

from benchmarks.conftest import run_once
from repro.context import RunContext, run_context
from repro.trace.collector import NULL_TRACE

#: Iterations of the guarded-emit microbenchmark loop.
LOOP = 200_000

#: Per-call budget for the disabled emit guard, in seconds.  One
#: attribute load plus a false branch costs tens of nanoseconds; the
#: bound is loose enough for CI jitter while still catching an
#: accidentally-live collector (orders of magnitude slower).
MAX_GUARD_SECONDS_PER_CALL = 2e-6


def _bare_loop() -> int:
    total = 0
    for i in range(LOOP):
        total += i
    return total


def _guarded_loop() -> int:
    trace = NULL_TRACE
    total = 0
    for i in range(LOOP):
        if trace.enabled:
            trace.emit("bench.never", value=i)
        total += i
    return total


def test_bench_disabled_emit_guard(benchmark):
    assert not NULL_TRACE.enabled

    started = time.perf_counter()
    _bare_loop()
    bare = time.perf_counter() - started

    started = time.perf_counter()
    run_once(benchmark, _guarded_loop)
    guarded = time.perf_counter() - started

    per_call = max(0.0, guarded - bare) / LOOP
    assert per_call < MAX_GUARD_SECONDS_PER_CALL, (
        f"disabled-trace guard costs {per_call * 1e9:.0f} ns/call "
        f"(bare={bare:.4f}s guarded={guarded:.4f}s)")


def test_bench_tracing_does_not_perturb_results(benchmark, bench_scale):
    from repro.experiments.registry import EXPERIMENTS, cell_runner

    spec = EXPERIMENTS["fig9"].build_sweep(
        scale=max(bench_scale, 16)).cells[0]
    runner = cell_runner(spec.experiment_id)
    untraced = runner(spec)
    with run_context(RunContext(trace="full")):
        traced = run_once(benchmark, lambda: runner(spec))
    assert untraced.trace is None
    assert traced.trace is not None and traced.trace.events
    assert traced.runtime == untraced.runtime
    assert traced.counters == untraced.counters
