"""The runtime invariant auditor: clean runs pass, corruption raises.

A paranoid machine carries an :class:`InvariantAuditor` that re-checks
frame conservation, EPT/swap/mapper consistency, and clock
monotonicity at phase boundaries and (sampled) reclaim events.  These
tests drive a real pressure workload under audit -- it must pass with
a nonzero audit count -- then corrupt live state by hand and assert
the auditor refuses it.
"""

import pytest

from repro.audit import InvariantAuditor
from repro.config import VSwapperConfig
from repro.context import RunContext, run_context
from repro.driver import VmDriver
from repro.errors import InvariantViolation, SimulationError
from repro.machine import Machine
from repro.workloads.sysbench import SysbenchFileRead
from tests.conftest import small_machine_config, small_vm_config


def _paranoid_machine() -> Machine:
    with run_context(RunContext(paranoid=True)):
        return Machine(small_machine_config())


def _pressure_run(machine: Machine, *, vswapper=None) -> "object":
    vm = machine.create_vm(small_vm_config(
        vswapper=vswapper, resident_limit_mib=4))
    machine.boot_guest(vm)
    vm.guest.fs.create_file("sysbench.dat", 1024)
    workload = SysbenchFileRead(
        file_pages=1024, iterations=2, chunk_pages=128)
    driver = VmDriver(machine, vm, workload)
    machine.run()
    assert driver.done and not driver.crashed
    return vm


def test_machine_only_audits_when_paranoid(machine):
    assert machine.auditor is None  # fixture machine: paranoid off
    paranoid = _paranoid_machine()
    assert isinstance(paranoid.auditor, InvariantAuditor)
    assert paranoid.hypervisor.auditor is paranoid.auditor


def test_invariant_violation_is_a_simulation_error():
    assert issubclass(InvariantViolation, SimulationError)


def test_clean_pressure_run_passes_audit_baseline():
    machine = _paranoid_machine()
    _pressure_run(machine)
    assert machine.auditor.audits > 0
    assert machine.auditor.quick_checks > 0
    machine.auditor.check("post-run")  # final full walk still clean


def test_clean_pressure_run_passes_audit_vswapper():
    machine = _paranoid_machine()
    _pressure_run(machine, vswapper=VSwapperConfig.full())
    assert machine.auditor.audits > 0
    machine.auditor.check("post-run")


def test_frame_pool_corruption_is_caught():
    machine = _paranoid_machine()
    machine.frames._used = machine.frames.total_frames + 1
    with pytest.raises(InvariantViolation, match="frame"):
        machine.auditor.check("tampered")


def test_clock_regression_is_caught():
    machine = _paranoid_machine()
    machine.auditor._last_time = machine.now + 100.0
    with pytest.raises(InvariantViolation):
        machine.auditor.check("tampered")


def test_page_both_mapped_and_swapped_is_caught():
    machine = _paranoid_machine()
    vm = _pressure_run(machine)
    present = next(iter(vm.ept.present_gpas()))
    vm.swap_slots[present] = 0
    with pytest.raises(InvariantViolation):
        machine.auditor.check("tampered")


def test_orphan_swap_slot_owner_is_caught():
    machine = _paranoid_machine()
    vm = _pressure_run(machine)
    assert vm.swap_slots, "pressure run should have swapped pages out"
    gpa, slot = next(iter(vm.swap_slots.items()))
    del machine.hypervisor.slot_owner[slot]
    with pytest.raises(InvariantViolation):
        machine.auditor.check("tampered")


def test_mapper_geometry_violation_is_caught():
    machine = _paranoid_machine()
    vm = _pressure_run(machine, vswapper=VSwapperConfig.full())
    assoc = next(iter(vm.mapper.associations()), None)
    assert assoc is not None, "vswapper run should track pages"
    assoc.block = vm.image.size_blocks + 7
    with pytest.raises(InvariantViolation):
        machine.auditor.check("tampered")


def test_violation_message_names_site_and_time():
    machine = _paranoid_machine()
    machine.frames._used = -1
    with pytest.raises(InvariantViolation, match=r"at tampered \(t="):
        machine.auditor.check("tampered")
