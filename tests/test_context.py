"""The run context: installing and restoring it, validating it, the
five reader views over it, and carrying it into worker processes."""

import subprocess
import sys

import pytest

from repro.audit import paranoid_enabled
from repro.cluster import Cluster
from repro.config import FaultConfig
from repro.context import RunContext, current_context, run_context
from repro.errors import ConfigError
from repro.exec.executor import (
    ParallelExecutor,
    _timed_execute,
    execute_cell,
)
from repro.exec.spec import CellSpec
from repro.exec.supervisor import CellSupervisor
from repro.experiments import registry
from repro.experiments.runner import ConfigName, RunResult
from repro.faults.plan import default_fault_config
from repro.profiling import profiling_dir
from repro.swapback.base import default_swap_backend
from repro.trace import tracing_mode
from tests.conftest import small_cluster_config

PROBE = "context-probe"


def _probe_cell(spec: CellSpec) -> RunResult:
    """Report whether a host built in this process installs an
    auditor, i.e. whether the worker saw ``paranoid``."""
    host = Cluster(small_cluster_config()).hosts[0]
    audited = host.auditor is not None
    return RunResult(config=ConfigName.BASELINE, runtime=0.0,
                     crashed=False, counters={"audited": int(audited)})


@pytest.fixture
def probe(monkeypatch):
    monkeypatch.setitem(registry.CELL_RUNNERS, PROBE, _probe_cell)
    return [CellSpec(experiment_id=PROBE, cell_id=f"c{i}", scale=1)
            for i in range(2)]


def test_run_context_installs_and_restores_the_previous_context():
    outer = RunContext(paranoid=True)
    inner = RunContext(trace="sampled")
    assert current_context() == RunContext()
    with run_context(outer):
        assert current_context() is outer
        with run_context(inner):
            assert current_context() is inner
        assert current_context() is outer
    assert current_context() == RunContext()


def test_run_context_restores_on_exception():
    with pytest.raises(RuntimeError):
        with run_context(RunContext(paranoid=True)):
            raise RuntimeError("boom")
    assert current_context() == RunContext()


def test_paranoid_view_follows_the_context():
    assert paranoid_enabled() is False
    with run_context(RunContext(paranoid=True)):
        assert paranoid_enabled() is True
    assert paranoid_enabled() is False


def test_tracing_and_profiling_views_follow_the_context(tmp_path):
    with run_context(RunContext(trace="full", profile_dir=str(tmp_path))):
        assert tracing_mode() == "full"
        assert profiling_dir() == str(tmp_path)
    assert tracing_mode() is None
    assert profiling_dir() is None


def test_default_fault_config_view_follows_the_context():
    chaos = FaultConfig.chaos()
    with run_context(RunContext(faults=chaos)):
        assert default_fault_config() is chaos
    assert default_fault_config() is None


def test_default_swap_backend_view_builds_the_registry_config():
    with run_context(RunContext(swap_backend="zram")):
        assert default_swap_backend().kind == "zram"
    assert default_swap_backend() is None


def test_readers_are_off_in_a_fresh_process():
    code = (
        "from repro.audit import paranoid_enabled\n"
        "from repro.faults.plan import default_fault_config\n"
        "from repro.profiling import profiling_dir\n"
        "from repro.swapback.base import default_swap_backend\n"
        "from repro.trace import tracing_mode\n"
        "print(any((paranoid_enabled(), tracing_mode(), profiling_dir(),"
        " default_fault_config(), default_swap_backend())))\n")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("fields, match", [
    ({"trace": "verbose"}, "unknown trace mode"),
    ({"swap_backend": "floppy"}, "unknown swap backend kind"),
    ({"faults": FaultConfig(max_retries=-1)}, "max_retries"),
], ids=["trace", "backend", "faults"])
def test_rejects_an_invalid_field(fields, match):
    with pytest.raises(ConfigError, match=match):
        RunContext(**fields)


def test_execute_cell_restores_the_context(monkeypatch):
    """The runner sees the cell's own backend beside the run's
    observational fields; the run's context comes back afterwards."""
    outer = RunContext(swap_backend="ssd", paranoid=True)
    seen = []
    monkeypatch.setitem(registry.CELL_RUNNERS, "context-recorder",
                        lambda spec: (seen.append(current_context())
                                      or _probe_cell(spec)))
    with run_context(outer):
        result = execute_cell(CellSpec(
            experiment_id="context-recorder", cell_id="nvme", scale=1,
            backend="nvme"))
        assert current_context() is outer
    assert result.counters["audited"] == 1
    assert seen == [RunContext(swap_backend="nvme", paranoid=True)]


@pytest.mark.parametrize("make", [
    lambda: ParallelExecutor(2), lambda: CellSupervisor(2),
], ids=["parallel", "supervisor"])
def test_paranoid_reaches_worker_processes(probe, make):
    executor = make()
    with run_context(RunContext(paranoid=True)):
        audited = [r.counters["audited"]
                   for r, _ in executor.run_cells(probe)]
    plain = [r.counters["audited"] for r, _ in executor.run_cells(probe)]
    assert audited == [1, 1]
    assert plain == [0, 0]


def test_worker_entry_installs_the_shipped_context(probe):
    """What a worker runs is the context it was handed, whatever it
    inherited (a spawned worker inherits nothing)."""
    result, _ = _timed_execute(probe[0], RunContext(paranoid=True))
    assert result.counters["audited"] == 1
    assert current_context() == RunContext()
