"""The supervised worker pool: warm workers, timeouts, crash recovery,
quarantine of environmental failures and abort on cell errors.

These tests register a test-only cell runner whose behaviour is driven
by the spec (``params["behavior"]``): it can succeed, report its
worker's pid, kill its worker process outright, hang past any
deadline, or raise.  The supervisor must retry the environmental
failures and quarantine them as typed :class:`CellFailure` records,
abort the sweep on a raised error exactly as the serial executor
does, and leave every surviving cell bit-identical to a serial run.
"""

import multiprocessing
import os
import time

import pytest

from repro.config import FaultConfig
from repro.context import RunContext, run_context
from repro.errors import ConfigError
from repro.exec import supervisor as supervisor_module
from repro.exec.executor import SerialExecutor, make_executor, run_sweep
from repro.exec.spec import CellSpec, Sweep, fault_params
from repro.exec.store import ResultStore
from repro.exec.supervisor import (
    MAX_RETRIES,
    CellFailure,
    CellSupervisor,
    FailureKind,
)
from repro.experiments import registry
from repro.experiments.fig09 import build_fig09_sweep
from repro.experiments.runner import ConfigName, RunResult
from repro.faults.plan import capped_backoff

HARNESS = "supervised-fake"
KILL_EVERY_FIRST_ATTEMPT = FaultConfig(enabled=True, worker_kill_rate=1.0)


def _behaving_cell(spec: CellSpec) -> RunResult:
    """Test-only runner: the spec says how this cell (mis)behaves."""
    behavior = spec.params.get("behavior", "ok")
    log = spec.params.get("log")
    if log:
        with open(log, "a") as handle:
            handle.write(f"{spec.cell_id}\n")
    if behavior == "exit":
        os._exit(1)  # die hard: no exception, no report
    if behavior == "hang":
        time.sleep(60)
    if behavior == "raise":
        time.sleep(0.3)  # let the cells dispatched beside it finish
        raise RuntimeError("deliberate cell error")
    if behavior == "raise-unpicklable":
        error = ValueError("deliberate cell error")
        error.hook = lambda: None  # pickling the error fails
        raise error
    counters = {"value": spec.params["value"]}
    if behavior == "pid":
        counters["pid"] = os.getpid()
    return RunResult(
        config=ConfigName.BASELINE,
        runtime=float(spec.params["value"]),
        crashed=False,
        counters=counters,
    )


@pytest.fixture(autouse=True)
def _harness(monkeypatch):
    monkeypatch.setitem(registry.CELL_RUNNERS, HARNESS, _behaving_cell)
    # Keep retry backoff short so failing tests stay fast.
    monkeypatch.setattr(supervisor_module, "BACKOFF_BASE", 0.01)
    monkeypatch.setattr(supervisor_module, "BACKOFF_CAP", 0.05)


def _spec(cell_id: str, behavior: str = "ok", value: float = 1.0,
          faults: dict | None = None, log: str | None = None) -> CellSpec:
    params = {"behavior": behavior, "value": value}
    if log is not None:
        params["log"] = log
    return CellSpec(experiment_id=HARNESS, cell_id=cell_id, scale=1,
                    params=params, faults=faults)


def test_healthy_cells_are_bit_identical_to_serial():
    specs = [_spec(f"c{i}", value=float(i)) for i in range(4)]
    serial = SerialExecutor().run_cells(specs)
    supervised = CellSupervisor(2, timeout=10.0).run_cells(specs)
    assert [r.to_dict() for r, _ in serial] \
        == [r.to_dict() for r, _ in supervised]


def test_one_warm_worker_runs_consecutive_cells():
    specs = [_spec(f"c{i}", "pid", value=float(i)) for i in range(3)]
    results = CellSupervisor(1).run_cells(specs)
    pids = {result.counters["pid"] for result, _ in results}
    assert len(pids) == 1
    assert os.getpid() not in pids
    assert multiprocessing.active_children() == []


def test_killed_worker_is_replaced_by_a_fresh_one():
    chaos = fault_params(KILL_EVERY_FIRST_ATTEMPT)
    specs = [_spec("before", "pid"), _spec("killed", "pid", faults=chaos),
             _spec("after", "pid")]
    supervisor = CellSupervisor(1)
    before, killed, after = [result.counters["pid"]
                             for result, _ in supervisor.run_cells(specs)]
    assert killed != before  # the killed worker's replacement ran it...
    assert after == killed  # ...and stays warm for the next cell
    assert supervisor.retried_cells == ["killed"]


def test_killed_worker_cell_recovers_bit_identically():
    with run_context(RunContext(faults=KILL_EVERY_FIRST_ATTEMPT)):
        sweep = build_fig09_sweep(scale=32, iterations=1)
    supervisor = CellSupervisor(1)
    recovered = run_sweep(sweep, executor=supervisor)
    serial = run_sweep(sweep, executor=SerialExecutor())
    assert supervisor.retried_cells == [c.cell_id for c in sweep.cells]
    assert {cell_id: result.to_dict()
            for cell_id, result in recovered.results.items()} \
        == {cell_id: result.to_dict()
            for cell_id, result in serial.results.items()}


def test_worker_death_is_retried_then_quarantined():
    supervisor = CellSupervisor(2, timeout=10.0, max_retries=1)
    [(outcome, _wall)] = supervisor.run_cells([_spec("dies", "exit")])
    assert isinstance(outcome, CellFailure)
    assert outcome.kind is FailureKind.WORKER_CRASH
    assert outcome.attempts == 2  # first try + one retry
    assert "retries exhausted" in outcome.message
    assert supervisor.retried_cells == ["dies"]


def test_hung_cell_is_terminated_and_quarantined():
    supervisor = CellSupervisor(1, timeout=0.3, max_retries=0)
    started = time.monotonic()
    [(outcome, _wall)] = supervisor.run_cells([_spec("hangs", "hang")])
    assert time.monotonic() - started < 30  # never waits the full sleep
    assert isinstance(outcome, CellFailure)
    assert outcome.kind is FailureKind.TIMEOUT
    assert outcome.attempts == 1
    assert multiprocessing.active_children() == []


def test_reported_error_aborts_without_retry(tmp_path):
    """A cell that raises in a worker aborts the sweep as it does
    serially: the original error, never a quarantined hole."""
    log = tmp_path / "attempts.log"
    sweep = Sweep(HARNESS, (
        _spec("c0", value=0.0),
        _spec("c1", value=1.0),
        _spec("raises", "raise", log=str(log)),
        _spec("c3", value=3.0),
    ))
    store = ResultStore(tmp_path / "store")
    supervisor = CellSupervisor(2, max_retries=3)
    with pytest.raises(RuntimeError, match="deliberate cell error"):
        run_sweep(sweep, executor=supervisor, store=store)
    assert log.read_text().split() == ["raises"]  # deterministic: no retry
    assert supervisor.retried_cells == []
    assert store.has_cell(sweep.cells[0]) and store.has_cell(sweep.cells[1])
    assert not store.has_cell(sweep.cells[2])
    assert multiprocessing.active_children() == []


def test_unpicklable_cell_error_still_aborts():
    """An error that cannot cross the pipe is reported in its place,
    never mistaken for a dead worker and retried."""
    supervisor = CellSupervisor(1, max_retries=3)
    with pytest.raises(RuntimeError, match="does not pickle") as raised:
        supervisor.run_cells([_spec("odd", "raise-unpicklable")])
    assert "deliberate cell error" in str(raised.value.__cause__)
    assert supervisor.retried_cells == []


def _die_mid_sweep(pids_file: str) -> None:
    """Subprocess body: die hard, as a store crash point does, the
    moment one cell is checkpointed while the other worker is mid-cell."""
    def crash(spec, result, wall):
        pids = [child.pid for child in multiprocessing.active_children()]
        with open(pids_file, "w") as handle:
            handle.write(" ".join(map(str, pids)))
        os._exit(47)

    CellSupervisor(2).run_cells(
        [_spec("hangs", "hang"), _spec("quick", value=1.0)], on_cell=crash)


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_workers_die_with_their_parent(tmp_path):
    pids_file = tmp_path / "pids"
    parent = multiprocessing.Process(target=_die_mid_sweep,
                                     args=(str(pids_file),))
    parent.start()
    parent.join(timeout=30)
    assert parent.exitcode == 47
    pids = [int(pid) for pid in pids_file.read_text().split()]
    assert len(pids) == 2
    deadline = time.monotonic() + 10
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_running, pids))  # the hung one included


def test_worker_kill_chaos_recovers_on_retry():
    chaos = fault_params(KILL_EVERY_FIRST_ATTEMPT)
    spec = _spec("chaotic", faults=chaos)
    supervisor = CellSupervisor(1, timeout=10.0, max_retries=2)
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
    executor = CellSupervisor(2, timeout=10.0, max_retries=1)
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
    executor = CellSupervisor(2, timeout=10.0, max_retries=0)
    run_sweep(sweep, executor=executor, store=store)
    assert store.has_cell(sweep.cells[0])
    assert not store.has_cell(sweep.cells[1])  # a later --resume retries

    # And the resume serves the survivor from cache, retrying the hole.
    outcome = run_sweep(sweep, executor=executor, store=store, resume=True)
    assert outcome.cached == 1
    assert outcome.cached_wall_seconds["good"] >= 0.0
    assert list(outcome.failures) == ["bad"]


def test_empty_sweep_is_a_noop():
    assert CellSupervisor(2).run_cells([]) == []


def test_make_executor_selects_supervision():
    assert isinstance(make_executor(1), SerialExecutor)
    assert isinstance(make_executor(1, timeout=5.0), CellSupervisor)
    assert isinstance(make_executor(2, retries=0), CellSupervisor)
    with run_context(RunContext(faults=FaultConfig(
            enabled=True, worker_kill_rate=0.5))):
        assert isinstance(make_executor(1), CellSupervisor)
    assert make_executor(2).max_retries == MAX_RETRIES
    supervisor = make_executor(4, timeout=2.5, retries=7)
    assert supervisor.timeout == 2.5
    assert supervisor.max_retries == 7


def test_supervisor_config_validation():
    with pytest.raises(ConfigError):
        CellSupervisor(2, timeout=0.0)
    with pytest.raises(ConfigError):
        CellSupervisor(2, max_retries=-1)
    with pytest.raises(ConfigError):
        CellSupervisor(0)


def test_backoff_is_capped():
    assert [capped_backoff(n, 1.0, 2.0, 3.0) for n in (1, 2, 3, 10)] \
        == [1.0, 2.0, 3.0, 3.0]  # capped, not 4.0 or 512.0
