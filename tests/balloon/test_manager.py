"""Balloon manager control loop over a live cluster."""

from repro.balloon.manager import BalloonManager, ManagerConfig
from repro.balloon.policy import BalloonPolicy
from repro.cluster import Cluster
from repro.driver import VmDriver
from repro.sim.ops import Alloc, Compute, Touch
from repro.workloads.base import Workload
from tests.conftest import small_cluster_config, small_vm_config


class IdleWorkload(Workload):
    """Computes quietly for a while."""

    name = "idle"

    def __init__(self, steps=40):
        self.steps = steps

    def operations(self):
        for _ in range(self.steps):
            yield Compute(1.0)


class HungryWorkload(Workload):
    """Rapidly builds a large anonymous footprint."""

    name = "hungry"
    min_resident_pages = 0

    def __init__(self, pages=3000, chunk=256):
        self.pages = pages
        self.chunk = chunk

    def operations(self):
        yield Alloc("tables", self.pages)
        offset = 0
        while offset < self.pages:
            length = min(self.chunk, self.pages - offset)
            yield Touch("tables", offset, length, write=True)
            yield Compute(0.2)
            offset += length


def test_manager_ticks_and_records_history():
    cluster = Cluster(small_cluster_config())
    host = cluster.hosts[0]
    vm = cluster.create_vm(small_vm_config())
    VmDriver(vm, IdleWorkload(steps=5))
    manager = BalloonManager(host, ManagerConfig(poll_interval=1.0))
    cluster.engine.run(until=4.5)
    cluster.engine.stop()
    cluster.engine.run()
    assert manager.ticks >= 4
    assert all(vm_id == vm.vm_id for _t, vm_id, _tg in manager.history)


def test_manager_inflates_idle_guests_under_pressure():
    # Two guests on a host that cannot hold both: the hungry one's
    # growth creates host evictions, and the manager should balloon
    # the idle one.
    cluster = Cluster(
        small_cluster_config(total_memory_pages=6000))
    host = cluster.hosts[0]
    idle = cluster.create_vm(small_vm_config(name="idle"))
    hungry = cluster.create_vm(small_vm_config(name="hungry"))
    # Pre-touch the idle guest so it owns memory worth reclaiming.
    for i in range(3500):
        host.hypervisor.touch_page(idle, 0x100 + i, write=True)
    idle_driver = VmDriver(idle, IdleWorkload(steps=60))
    hungry_driver = VmDriver(hungry, HungryWorkload(pages=3400))
    BalloonManager(host, ManagerConfig(
        poll_interval=1.0,
        policy=BalloonPolicy(host_pressure_evictions=64)))
    cluster.engine.run(until=80.0)
    cluster.engine.stop()
    cluster.engine.run()
    assert idle_driver.done and hungry_driver.done
    assert idle.guest.balloon_target > 0
    assert idle.counters.balloon_inflated_pages > 0


def test_manager_skips_oom_killed_guests():
    cluster = Cluster(small_cluster_config())
    host = cluster.hosts[0]
    vm = cluster.create_vm(small_vm_config())
    vm.guest.oom_killed = True
    manager = BalloonManager(host, ManagerConfig(poll_interval=1.0))
    cluster.engine.run(until=2.5)
    cluster.engine.stop()
    cluster.engine.run()
    assert manager.history == []
