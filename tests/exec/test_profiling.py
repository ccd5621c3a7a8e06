"""The ``--profile`` harness: the run context's profile directory,
report placement, and the results-stay-identical guarantee."""

from dataclasses import replace

import pytest

from repro import profiling
from repro.cli import build_parser
from repro.config import FaultConfig
from repro.context import RunContext, run_context
from repro.exec.executor import execute_cell
from repro.exec.spec import CellSpec, fault_params
from repro.exec.store import cell_key
from repro.exec.supervisor import CellSupervisor
from repro.experiments import registry
from repro.experiments.runner import ConfigName, RunResult


def busy_cell(spec: CellSpec) -> RunResult:
    # Enough work for cProfile to have something to report.
    total = sum(i * i for i in range(5000))
    return RunResult(
        config=ConfigName.BASELINE,
        runtime=float(spec.params["value"]),
        crashed=False,
        counters={"value": spec.params["value"], "busy": total},
    )


@pytest.fixture(autouse=True)
def _fake_harness(monkeypatch):
    monkeypatch.setitem(registry.CELL_RUNNERS, "fake-prof", busy_cell)


def _profiling(directory):
    return run_context(RunContext(profile_dir=str(directory)))


def _spec(i: int = 0) -> CellSpec:
    return CellSpec(experiment_id="fake-prof", cell_id=f"c{i}", scale=1,
                    params={"value": i})


def test_profiling_is_off_by_default(tmp_path):
    assert profiling.profiling_dir() is None
    execute_cell(_spec())
    assert list(tmp_path.iterdir()) == []


def test_report_path_mirrors_the_store_record_name(tmp_path):
    spec = _spec(3)
    with _profiling(tmp_path):
        path = profiling.profile_report_path(spec)
    assert path == tmp_path / "fake-prof" / f"c3-{cell_key(spec)[:12]}.txt"


def test_report_path_requires_profiling_enabled():
    with pytest.raises(RuntimeError):
        profiling.profile_report_path(_spec())


def test_execute_cell_persists_a_report(tmp_path):
    spec = _spec(1)
    with _profiling(tmp_path):
        result = execute_cell(spec)
        report = profiling.profile_report_path(spec).read_text()
    assert "profile: experiment=fake-prof cell=c1" in report
    assert "busy_cell" in report
    assert "-- by call count --" in report
    assert result.counters["value"] == 1


def test_profiled_results_are_identical(tmp_path):
    spec = _spec(2)
    plain = execute_cell(spec)
    with _profiling(tmp_path):
        profiled = execute_cell(spec)
    assert profiled.to_dict() == plain.to_dict()


def test_parallel_executor_profiles_every_worker_cell(tmp_path):
    """Three cells on two warm workers: one worker profiles two cells."""
    specs = [_spec(i) for i in range(3)]
    with _profiling(tmp_path):
        results = CellSupervisor(jobs=2).run_cells(specs)
        assert [r.counters["value"] for r, _ in results] == [0, 1, 2]
        for spec in specs:
            assert profiling.profile_report_path(spec).exists()


def test_supervisor_profiles_every_worker_cell(tmp_path):
    """Killed first attempts leave the retry on a fresh worker to write
    the report."""
    kill = fault_params(FaultConfig(enabled=True, worker_kill_rate=1.0))
    specs = [replace(_spec(i), faults=kill) for i in range(2)]
    with _profiling(tmp_path):
        supervisor = CellSupervisor(jobs=2, timeout=60.0)
        results = supervisor.run_cells(specs)
        assert [r.counters["value"] for r, _ in results] == [0, 1]
        assert supervisor.retried_cells == ["c0", "c1"]
        for spec in specs:
            assert profiling.profile_report_path(spec).exists()


def test_cli_accepts_the_profile_flag():
    args = build_parser().parse_args(["run", "fig9", "--profile"])
    assert args.profile is True
    args = build_parser().parse_args(["run", "fig9"])
    assert args.profile is False
