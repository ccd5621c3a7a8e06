"""Experiment runner machinery."""

import pytest

import repro.experiments.dynamic as dynamic_module
import repro.experiments.runner as runner_module
from repro.config import ClusterConfig, FaultConfig, GuestConfig
from repro.driver import VmDriver
from repro.errors import ExperimentError
from repro.experiments.runner import (
    ConfigName,
    PhaseMark,
    RunResult,
    SingleVmExperiment,
    scaled_guest_config,
    standard_configs,
)
from repro.units import mib_pages
from repro.workloads.sysbench import SysbenchFileRead


def test_standard_configs_order_and_names():
    specs = standard_configs()
    assert [s.name for s in specs] == [
        ConfigName.BASELINE,
        ConfigName.BALLOON_BASELINE,
        ConfigName.MAPPER,
        ConfigName.VSWAPPER,
        ConfigName.BALLOON_VSWAPPER,
    ]
    by_name = {s.name: s for s in specs}
    assert not by_name[ConfigName.BASELINE].vswapper.enable_mapper
    assert by_name[ConfigName.MAPPER].vswapper.enable_mapper
    assert not by_name[ConfigName.MAPPER].vswapper.enable_preventer
    assert by_name[ConfigName.VSWAPPER].vswapper.enable_preventer
    assert by_name[ConfigName.BALLOON_VSWAPPER].ballooned


def test_standard_configs_filter():
    specs = standard_configs([ConfigName.MAPPER])
    assert len(specs) == 1
    assert specs[0].name is ConfigName.MAPPER


def test_scaled_guest_config_scales_everything():
    full = scaled_guest_config(512, 1)
    quarter = scaled_guest_config(512, 4)
    assert quarter.memory_pages == full.memory_pages // 4
    assert quarter.kernel_reserve_pages == full.kernel_reserve_pages // 4
    assert quarter.guest_swap_pages == full.guest_swap_pages // 4


def test_run_result_iteration_helpers():
    result = RunResult(
        ConfigName.BASELINE, 10.0, False, {},
        phases=[
            PhaseMark("iteration-start", {}, 1.0, {"disk_ops": 5}),
            PhaseMark("iteration-end", {}, 3.0, {"disk_ops": 9}),
            PhaseMark("iteration-start", {}, 3.0, {"disk_ops": 9}),
            PhaseMark("iteration-end", {}, 6.0, {"disk_ops": 20}),
        ])
    assert result.iteration_durations() == [2.0, 3.0]
    assert result.iteration_counter_deltas("disk_ops") == [4, 11]


def test_run_result_unbalanced_marks_rejected():
    result = RunResult(
        ConfigName.BASELINE, 10.0, False, {},
        phases=[PhaseMark("iteration-start", {}, 1.0)])
    with pytest.raises(ExperimentError):
        result.iteration_durations()


def test_experiment_rejects_actual_above_guest():
    with pytest.raises(ExperimentError):
        SingleVmExperiment(
            guest_config=GuestConfig(memory_pages=mib_pages(100)),
            actual_mib=200)


def test_experiment_runs_all_configs_small():
    experiment = SingleVmExperiment(
        actual_mib=4,
        guest_config=scaled_guest_config(512, 32),
        files=[("sysbench.dat", mib_pages(6))],
    )
    workload_pages = mib_pages(6)
    for spec in standard_configs():
        result = experiment.run(spec, SysbenchFileRead(
            file_pages=workload_pages, iterations=1,
            min_resident_pages=0))
        assert result.config is spec.name
        assert not result.crashed
        assert result.runtime > 0
        assert result.counters["disk_ops"] > 0


def test_run_result_status_vocabulary():
    ok = RunResult(ConfigName.BASELINE, 1.0, False, {})
    degraded = RunResult(ConfigName.MAPPER, 1.0, False, {}, degraded=True)
    crashed = RunResult(ConfigName.VSWAPPER, None, True, {},
                        crash_reason="FaultError: boom")
    assert ok.status == "ok"
    assert degraded.status == "degraded"
    assert crashed.status == "crashed"


def test_fault_induced_crash_becomes_a_cell_not_an_abort():
    """A configuration killed by injected faults reports as crashed;
    the sweep (and its counters) survive."""
    experiment = SingleVmExperiment(
        actual_mib=4,
        guest_config=scaled_guest_config(512, 32),
        cluster_config=ClusterConfig(faults=FaultConfig(
            enabled=True, swap_slot_corruption_rate=1.0)),
        files=[("sysbench.dat", mib_pages(6))],
    )
    spec = standard_configs([ConfigName.BASELINE])[0]
    result = experiment.run(spec, SysbenchFileRead(
        file_pages=mib_pages(6), iterations=1, min_resident_pages=0))
    assert result.crashed
    assert result.status == "crashed"
    assert result.crash_reason.startswith("HostError")
    assert result.counters  # snapshot captured at the crash point


def test_timeline_sampling():
    experiment = SingleVmExperiment(
        actual_mib=8,
        guest_config=scaled_guest_config(512, 32),
        files=[("sysbench.dat", mib_pages(6))],
        sample_interval=0.05,
    )
    spec = standard_configs([ConfigName.VSWAPPER])[0]
    result = experiment.run(spec, SysbenchFileRead(
        file_pages=mib_pages(6), iterations=2, min_resident_pages=0))
    times, values = result.timeline.series("guest_page_cache")
    assert len(times) > 3
    assert max(values) > 0
    assert "mapper_tracked" in result.timeline.series_names()


class _StalledDriver(VmDriver):
    """A driver whose step process is never scheduled, so the engine
    drains while its workload is still unfinished."""

    def __init__(self, vm, workload, **_options) -> None:
        self.vm = vm
        self.workload = workload
        self.started_at = self.finished_at = None
        self.crashed = False


def _single_vm_run() -> None:
    experiment = SingleVmExperiment(
        actual_mib=8,
        guest_config=scaled_guest_config(512, 32))
    experiment.run(standard_configs([ConfigName.BASELINE])[0],
                   SysbenchFileRead(file_pages=mib_pages(1), iterations=1,
                                    min_resident_pages=0))


def _fleet_run() -> None:
    sweep = dynamic_module.build_fig14_sweep(
        scale=64, guest_counts=(2,), config_names=(ConfigName.BASELINE,))
    dynamic_module.dynamic_cell(sweep.cells[0])


@pytest.mark.parametrize("module, run", [
    (runner_module, _single_vm_run),
    (dynamic_module, _fleet_run),
], ids=["single-vm", "fleet"])
def test_drained_engine_is_a_typed_error(monkeypatch, module, run):
    """An engine that runs dry before every workload finished is a
    harness bug: both run loops raise ExperimentError, never a bare
    RuntimeError and never a crashed cell."""
    monkeypatch.setattr(module, "VmDriver", _StalledDriver)
    with pytest.raises(ExperimentError, match="engine drained"):
        run()
