"""The supervised executor: timeouts, crash recovery, quarantine.

These tests register a test-only cell runner whose behaviour is driven
by the spec (``params["behavior"]``): it can succeed, kill its worker
process outright, hang past any deadline, or raise.  The supervisor
must retry the environmental failures, quarantine the rest as typed
:class:`CellFailure` records, and leave every surviving cell
bit-identical to a serial run.
"""

import os
import time

import pytest

from repro.config import FaultConfig
from repro.errors import ConfigError
from repro.exec.executor import SerialExecutor, make_executor, run_sweep
from repro.exec.spec import CellSpec, Sweep, fault_params
from repro.exec.store import ResultStore
from repro.exec.supervisor import (
    CellFailure,
    CellSupervisor,
    FailureKind,
    SupervisorConfig,
)
from repro.experiments import registry
from repro.experiments.runner import ConfigName, RunResult

HARNESS = "supervised-fake"


def _behaving_cell(spec: CellSpec) -> RunResult:
    """Test-only runner: the spec says how this cell (mis)behaves."""
    behavior = spec.params.get("behavior", "ok")
    if behavior == "exit":
        os._exit(1)  # die hard: no exception, no report
    if behavior == "hang":
        time.sleep(60)
    if behavior == "raise":
        raise RuntimeError("deliberate cell error")
    return RunResult(
        config=ConfigName.BASELINE,
        runtime=float(spec.params["value"]),
        crashed=False,
        counters={"value": spec.params["value"]},
    )


@pytest.fixture(autouse=True)
def _harness(monkeypatch):
    monkeypatch.setitem(registry.CELL_RUNNERS, HARNESS, _behaving_cell)


def _spec(cell_id: str, behavior: str = "ok", value: float = 1.0,
          faults: dict | None = None) -> CellSpec:
    return CellSpec(experiment_id=HARNESS, cell_id=cell_id, scale=1,
                    params={"behavior": behavior, "value": value},
                    faults=faults)


def _fast(**overrides) -> SupervisorConfig:
    """A supervisor config tuned so failing tests stay fast."""
    settings = dict(timeout=10.0, max_retries=1, backoff_base=0.01,
                    backoff_cap=0.05, heartbeat=0.02)
    settings.update(overrides)
    return SupervisorConfig(**settings)


def test_healthy_cells_are_bit_identical_to_serial():
    specs = [_spec(f"c{i}", value=float(i)) for i in range(4)]
    serial = SerialExecutor().run_cells(specs)
    supervised = CellSupervisor(2, _fast()).run_cells(specs)
    assert [r.to_dict() for r, _ in serial] \
        == [r.to_dict() for r, _ in supervised]


def test_worker_death_is_retried_then_quarantined():
    supervisor = CellSupervisor(2, _fast(max_retries=1))
    [(outcome, _wall)] = supervisor.run_cells([_spec("dies", "exit")])
    assert isinstance(outcome, CellFailure)
    assert outcome.kind is FailureKind.WORKER_CRASH
    assert outcome.attempts == 2  # first try + one retry
    assert "retries exhausted" in outcome.message
    assert supervisor.retried_cells == ["dies"]


def test_hung_cell_is_terminated_and_quarantined():
    supervisor = CellSupervisor(1, _fast(timeout=0.3, max_retries=0))
    started = time.monotonic()
    [(outcome, _wall)] = supervisor.run_cells([_spec("hangs", "hang")])
    assert time.monotonic() - started < 30  # never waits the full sleep
    assert isinstance(outcome, CellFailure)
    assert outcome.kind is FailureKind.TIMEOUT
    assert outcome.attempts == 1


def test_reported_error_quarantines_without_retry():
    supervisor = CellSupervisor(1, _fast(max_retries=3))
    [(outcome, _wall)] = supervisor.run_cells([_spec("raises", "raise")])
    assert isinstance(outcome, CellFailure)
    assert outcome.kind is FailureKind.FAULT
    assert outcome.attempts == 1  # deterministic: retrying is wasted work
    assert "deliberate cell error" in outcome.message
    assert supervisor.retried_cells == []


def test_worker_kill_chaos_recovers_on_retry():
    chaos = fault_params(FaultConfig(enabled=True, worker_kill_rate=1.0))
    spec = _spec("chaotic", faults=chaos)
    supervisor = CellSupervisor(1, _fast(max_retries=2))
    [(outcome, _wall)] = supervisor.run_cells([spec])
    # Attempt 1 is always killed (rate 1.0); worker_kill_max_attempt=1
    # spares attempt 2, so the retry recovers the cell.
    assert isinstance(outcome, RunResult)
    assert not outcome.crashed
    assert supervisor.retried_cells == ["chaotic"]


def test_mixed_sweep_completes_with_explicit_holes():
    sweep = Sweep(HARNESS, (
        _spec("c0", value=0.0),
        _spec("c1", "exit"),
        _spec("c2", value=2.0),
    ))
    executor = CellSupervisor(2, _fast(max_retries=1))
    outcome = run_sweep(sweep, executor=executor)

    serial = run_sweep(Sweep(HARNESS, (sweep.cells[0], sweep.cells[2])))
    assert outcome.results["c0"] == serial.results["c0"]
    assert outcome.results["c2"] == serial.results["c2"]

    assert list(outcome.failures) == ["c1"]
    failure = outcome.failures["c1"]
    assert failure.kind is FailureKind.WORKER_CRASH
    hole = outcome.results["c1"]
    assert hole.crashed
    assert "CellFailure[worker-crash]" in hole.crash_reason
    stats = outcome.stats
    assert (stats.executed, stats.quarantined, stats.retried) == (2, 1, 1)


def test_completed_cells_are_checkpointed_quarantined_are_not(tmp_path):
    store = ResultStore(tmp_path)
    sweep = Sweep(HARNESS, (
        _spec("good", value=1.0),
        _spec("bad", "exit"),
    ))
    executor = CellSupervisor(2, _fast(max_retries=0))
    run_sweep(sweep, executor=executor, store=store)
    assert store.has_cell(sweep.cells[0])
    assert not store.has_cell(sweep.cells[1])  # a later --resume retries

    # And the resume serves the survivor from cache, retrying the hole.
    outcome = run_sweep(sweep, executor=executor, store=store, resume=True)
    assert outcome.cached == 1
    assert outcome.cached_wall_seconds["good"] >= 0.0
    assert list(outcome.failures) == ["bad"]


def test_empty_sweep_is_a_noop():
    assert CellSupervisor(2, _fast()).run_cells([]) == []


def test_make_executor_selects_supervision():
    assert isinstance(make_executor(1, timeout=5.0), CellSupervisor)
    assert isinstance(make_executor(2, retries=0), CellSupervisor)
    assert isinstance(make_executor(2, supervise=True), CellSupervisor)
    supervisor = make_executor(4, timeout=2.5, retries=7)
    assert supervisor.config.timeout == 2.5
    assert supervisor.config.max_retries == 7


def test_supervisor_config_validation():
    with pytest.raises(ConfigError):
        SupervisorConfig(timeout=0.0).validate()
    with pytest.raises(ConfigError):
        SupervisorConfig(max_retries=-1).validate()
    with pytest.raises(ConfigError):
        SupervisorConfig(backoff_factor=0.5).validate()
    with pytest.raises(ConfigError):
        SupervisorConfig(heartbeat=0.0).validate()
    with pytest.raises(ConfigError):
        CellSupervisor(0)


def test_backoff_is_capped():
    config = SupervisorConfig(backoff_base=1.0, backoff_factor=2.0,
                              backoff_cap=3.0)
    assert config.backoff(1) == 1.0
    assert config.backoff(2) == 2.0
    assert config.backoff(3) == 3.0  # capped, not 4.0
    assert config.backoff(10) == 3.0
