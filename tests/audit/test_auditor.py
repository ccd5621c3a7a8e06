"""The runtime invariant auditor: clean runs pass, corruption raises.

Each host of a paranoid cluster carries an :class:`InvariantAuditor`
that re-checks frame conservation, EPT/swap/mapper consistency, and
clock monotonicity at phase boundaries and (sampled) reclaim events.
These tests drive a real pressure workload under audit -- it must pass
with a nonzero audit count -- then corrupt live state by hand and
assert the auditor refuses it.
"""

import pytest

from repro.audit import InvariantAuditor
from repro.cluster import Cluster
from repro.config import VSwapperConfig
from repro.context import RunContext, run_context
from repro.driver import VmDriver
from repro.errors import InvariantViolation, SimulationError
from repro.workloads.sysbench import SysbenchFileRead
from tests.conftest import small_cluster_config, small_vm_config


def _paranoid_cluster() -> Cluster:
    with run_context(RunContext(paranoid=True)):
        return Cluster(small_cluster_config())


def _pressure_run(cluster: Cluster, *, vswapper=None) -> "object":
    vm = cluster.create_vm(small_vm_config(
        vswapper=vswapper, resident_limit_mib=4))
    vm.host.boot_guest(vm)
    vm.guest.fs.create_file("sysbench.dat", 1024)
    workload = SysbenchFileRead(
        file_pages=1024, iterations=2, chunk_pages=128)
    driver = VmDriver(vm, workload)
    cluster.run()
    assert driver.done and not driver.crashed
    return vm


def test_machine_only_audits_when_paranoid(host):
    assert host.auditor is None  # fixture host: paranoid off
    paranoid = _paranoid_cluster().hosts[0]
    assert isinstance(paranoid.auditor, InvariantAuditor)
    assert paranoid.hypervisor.auditor is paranoid.auditor


def test_invariant_violation_is_a_simulation_error():
    assert issubclass(InvariantViolation, SimulationError)


def test_clean_pressure_run_passes_audit_baseline():
    cluster = _paranoid_cluster()
    host = cluster.hosts[0]
    _pressure_run(cluster)
    assert host.auditor.audits > 0
    assert host.auditor.quick_checks > 0
    host.auditor.check("post-run")  # final full walk still clean


def test_clean_pressure_run_passes_audit_vswapper():
    cluster = _paranoid_cluster()
    host = cluster.hosts[0]
    _pressure_run(cluster, vswapper=VSwapperConfig.full())
    assert host.auditor.audits > 0
    host.auditor.check("post-run")


def test_frame_pool_corruption_is_caught():
    cluster = _paranoid_cluster()
    host = cluster.hosts[0]
    host.frames._used = host.frames.total_frames + 1
    with pytest.raises(InvariantViolation, match="frame"):
        host.auditor.check("tampered")


def test_clock_regression_is_caught():
    cluster = _paranoid_cluster()
    host = cluster.hosts[0]
    host.auditor._last_time = cluster.now + 100.0
    with pytest.raises(InvariantViolation):
        host.auditor.check("tampered")


def test_page_both_mapped_and_swapped_is_caught():
    cluster = _paranoid_cluster()
    host = cluster.hosts[0]
    vm = _pressure_run(cluster)
    present = next(iter(vm.ept.present_gpas()))
    vm.swap_slots[present] = 0
    with pytest.raises(InvariantViolation):
        host.auditor.check("tampered")


def test_orphan_swap_slot_owner_is_caught():
    cluster = _paranoid_cluster()
    host = cluster.hosts[0]
    vm = _pressure_run(cluster)
    assert vm.swap_slots, "pressure run should have swapped pages out"
    gpa, slot = next(iter(vm.swap_slots.items()))
    del host.hypervisor.slot_owner[slot]
    with pytest.raises(InvariantViolation):
        host.auditor.check("tampered")


def test_mapper_geometry_violation_is_caught():
    cluster = _paranoid_cluster()
    host = cluster.hosts[0]
    vm = _pressure_run(cluster, vswapper=VSwapperConfig.full())
    assoc = next(iter(vm.mapper.associations()), None)
    assert assoc is not None, "vswapper run should track pages"
    assoc.block = vm.image.size_blocks + 7
    with pytest.raises(InvariantViolation):
        host.auditor.check("tampered")


def test_violation_message_names_site_and_time():
    cluster = _paranoid_cluster()
    host = cluster.hosts[0]
    host.frames._used = -1
    with pytest.raises(InvariantViolation, match=r"at tampered \(t="):
        host.auditor.check("tampered")
