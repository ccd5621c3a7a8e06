"""Executors and run_sweep: caching, resume, validation."""

import pytest

from repro.errors import ConfigError, ExperimentError
from repro.exec.executor import (
    SerialExecutor,
    execute_cell,
    make_executor,
    run_sweep,
)
from repro.exec.spec import CellSpec, Sweep
from repro.exec.store import ResultStore
from repro.exec.supervisor import CellSupervisor
from repro.experiments import registry
from repro.experiments.runner import ConfigName, RunResult

#: Executions observed by the fake runner (reset per test).
CALLS: list[str] = []


def fake_cell(spec: CellSpec) -> RunResult:
    CALLS.append(spec.cell_id)
    return RunResult(
        config=ConfigName.BASELINE,
        runtime=float(spec.params["value"]),
        crashed=False,
        counters={"value": spec.params["value"]},
    )


@pytest.fixture(autouse=True)
def _fake_harness(monkeypatch):
    monkeypatch.setitem(registry.CELL_RUNNERS, "fake", fake_cell)
    CALLS.clear()


def _sweep(n: int = 3) -> Sweep:
    cells = tuple(
        CellSpec(experiment_id="fake", cell_id=f"c{i}", scale=1,
                 params={"value": i})
        for i in range(n))
    return Sweep("fake", cells)


def test_execute_cell_dispatches_through_the_registry():
    result = execute_cell(_sweep().cells[1])
    assert result.counters == {"value": 1}


def test_unknown_harness_raises_experiment_error():
    spec = CellSpec(experiment_id="no-such-harness", cell_id="c", scale=1)
    with pytest.raises(ExperimentError):
        execute_cell(spec)


def test_run_sweep_serial_order_and_stats():
    outcome = run_sweep(_sweep())
    assert list(outcome.results) == ["c0", "c1", "c2"]
    assert CALLS == ["c0", "c1", "c2"]
    assert outcome.executed == 3
    assert outcome.cached == 0
    stats = outcome.stats
    assert (stats.cells, stats.executed, stats.cached) == (3, 3, 0)
    assert not stats.all_cached


def test_run_sweep_persists_and_resumes(tmp_path):
    store = ResultStore(tmp_path)
    first = run_sweep(_sweep(), store=store)
    assert first.executed == 3

    CALLS.clear()
    second = run_sweep(_sweep(), store=store, resume=True)
    assert CALLS == []
    assert second.executed == 0
    assert second.cached == 3
    assert second.stats.all_cached
    assert second.results == first.results


def test_resume_misses_only_reexecute_missing_cells(tmp_path):
    store = ResultStore(tmp_path)
    run_sweep(_sweep(2), store=store)

    CALLS.clear()
    outcome = run_sweep(_sweep(3), store=store, resume=True)
    assert CALLS == ["c2"]
    assert outcome.executed == 1
    assert outcome.cached == 2


def test_without_resume_the_store_is_write_only(tmp_path):
    store = ResultStore(tmp_path)
    run_sweep(_sweep(), store=store)
    CALLS.clear()
    outcome = run_sweep(_sweep(), store=store)
    assert CALLS == ["c0", "c1", "c2"]  # no silent cache reads
    assert outcome.cached == 0


def test_resume_without_store_raises_config_error():
    with pytest.raises(ConfigError, match="results"):
        run_sweep(_sweep(), resume=True)


def test_parallel_executor_matches_serial_on_fake_cells():
    serial = run_sweep(_sweep(4))
    parallel = run_sweep(_sweep(4), executor=CellSupervisor(2))
    assert serial.results == parallel.results
    assert list(parallel.results) == ["c0", "c1", "c2", "c3"]


def test_make_executor_validation():
    assert isinstance(make_executor(1), SerialExecutor)
    assert isinstance(make_executor(2), CellSupervisor)
    with pytest.raises(ConfigError):
        make_executor(0)
    with pytest.raises(ConfigError):
        CellSupervisor(-1)


def test_single_cell_starts_one_worker(monkeypatch):
    started = []
    start = CellSupervisor._start_worker
    monkeypatch.setattr(CellSupervisor, "_start_worker", staticmethod(
        lambda workers, ctx: started.append(1) or start(workers, ctx)))
    outcome = run_sweep(_sweep(1), executor=CellSupervisor(8))
    assert outcome.executed == 1
    assert CALLS == []  # ran in the worker, not in this process
    assert started == [1]
