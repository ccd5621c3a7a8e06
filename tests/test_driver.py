"""VM driver: timing, phases, crashes, overlap."""

import pytest

from repro.cluster import Cluster
from repro.config import GuestOsKind
from repro.driver import VmDriver, fault_overlap_for
from repro.sim.ops import Alloc, Compute, MarkPhase, Touch
from repro.workloads.base import Workload
from tests.conftest import (
    small_guest_config,
    small_cluster_config,
    small_vm_config,
)


class ScriptedWorkload(Workload):
    """Yields a fixed list of operations."""

    name = "scripted"

    def __init__(self, ops, threads=1, min_resident_pages=0):
        self.ops = ops
        self.threads = threads
        self.min_resident_pages = min_resident_pages

    def operations(self):
        yield from self.ops


def test_runtime_matches_compute_total(cluster, vm):
    driver = VmDriver(vm, ScriptedWorkload(
        [Compute(1.0), Compute(2.0)]))
    cluster.run()
    assert driver.done
    assert driver.runtime == pytest.approx(3.0)


def test_runtime_unfinished_raises(vm):
    driver = VmDriver(vm, ScriptedWorkload([Compute(1.0)]))
    with pytest.raises(RuntimeError):
        _ = driver.runtime


def test_phase_callback_invoked(cluster, vm):
    marks = []
    driver = VmDriver(
        vm, ScriptedWorkload([MarkPhase("a", {"k": 1}), Compute(1.0),
                              MarkPhase("b")]),
        phase_callback=lambda name, payload, t: marks.append(
            (name, payload, t)))
    cluster.run()
    assert [m[0] for m in marks] == ["a", "b"]
    assert marks[0][1] == {"k": 1}
    assert marks[1][2] == pytest.approx(1.0)


def test_min_resident_set_at_start(cluster, vm):
    VmDriver(vm, ScriptedWorkload(
        [Compute(0.1)], min_resident_pages=500))
    cluster.run()
    assert vm.guest.workload_min_resident == 500


def test_start_delay(cluster, vm):
    driver = VmDriver(vm, ScriptedWorkload([Compute(1.0)]),
                      start_delay=5.0)
    cluster.run()
    assert driver.started_at == 5.0
    assert driver.finished_at == pytest.approx(6.0)


def test_crash_on_oom(cluster):
    guest = small_guest_config()
    vm = cluster.create_vm(small_vm_config(guest=guest))
    # Demand a resident set bigger than the guest: killed at the spike.
    spike = MarkPhase("spike", {
        "min_resident_pages": guest.memory_pages * 2})
    driver = VmDriver(vm, ScriptedWorkload(
        [Compute(0.1), spike, Compute(10.0)]))
    cluster.run()
    assert driver.crashed
    assert driver.done
    # The post-spike compute never ran.
    assert driver.finished_at < 5.0


def test_driver_applies_pending_balloon_target(cluster, vm):
    driver = VmDriver(vm, ScriptedWorkload(
        [Compute(0.1)] * 5))
    vm.guest.set_balloon_target(512)
    cluster.run()
    assert driver.done
    assert vm.guest.balloon_size == 512


def test_fault_overlap_for():
    assert fault_overlap_for(1, True) == 1.0
    assert fault_overlap_for(8, False) == 1.0
    assert fault_overlap_for(2, True) == 0.5
    assert fault_overlap_for(4, True) == 0.5  # floor


def test_windows_guest_gets_no_overlap(cluster):
    guest = small_guest_config(os_kind=GuestOsKind.WINDOWS)
    vm = cluster.create_vm(small_vm_config(guest=guest))
    VmDriver(vm, ScriptedWorkload([Compute(0.1)], threads=8))
    assert vm.fault_overlap == 1.0


def test_linux_multithreaded_gets_overlap(vm):
    VmDriver(vm, ScriptedWorkload([Compute(0.1)], threads=8))
    assert vm.fault_overlap == 0.5


def test_multiple_drivers_interleave():
    cluster = Cluster(small_cluster_config())
    a = cluster.create_vm(small_vm_config(name="a"))
    b = cluster.create_vm(small_vm_config(name="b"))
    da = VmDriver(a, ScriptedWorkload([Compute(1.0)] * 3))
    db = VmDriver(b, ScriptedWorkload([Compute(1.0)] * 3),
                  start_delay=0.5)
    cluster.run()
    assert da.done and db.done
    assert da.runtime == pytest.approx(3.0)
    assert db.runtime == pytest.approx(3.0)
