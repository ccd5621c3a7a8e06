"""Acceptance property: parallel execution is bit-identical to serial.

Runs the real Figure 9 harness -- cells build their own seeded
machines -- once on the serial executor and once on a four-worker
process pool, with and without the chaos fault plan, and requires the
*exact* same counters, runtimes, phases, and statuses per cell.
"""

import pytest

from repro.config import FaultConfig
from repro.context import RunContext, run_context
from repro.exec.executor import ParallelExecutor, SerialExecutor, run_sweep
from repro.experiments.fig09 import build_fig09_sweep

SCALE = 8


@pytest.mark.parametrize("fault_config", [None, FaultConfig.chaos()],
                         ids=["clean", "faults"])
def test_parallel_results_bit_identical_to_serial(fault_config):
    with run_context(RunContext(faults=fault_config)):
        sweep = build_fig09_sweep(scale=SCALE, iterations=2)

    # The fault plan was captured into the cells at build time: the
    # executors below run under the default context, proving a worker
    # process needs nothing but the spec.
    serial = run_sweep(sweep, executor=SerialExecutor())
    parallel = run_sweep(sweep, executor=ParallelExecutor(4))

    assert list(serial.results) == list(parallel.results)
    for cell_id, expected in serial.results.items():
        got = parallel.results[cell_id]
        assert got.counters == expected.counters, cell_id
        assert got.runtime == expected.runtime, cell_id
        assert got.phases == expected.phases, cell_id
        assert got.status == expected.status, cell_id
        assert got.crash_reason == expected.crash_reason, cell_id
