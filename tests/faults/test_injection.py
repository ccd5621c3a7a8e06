"""Fault hooks in the host swap path and the mapper circuit breaker."""

import pytest

from repro.cluster import Cluster
from repro.config import FaultConfig, VSwapperConfig
from repro.errors import HostError
from repro.guest.kernel import Transfer
from repro.mem.page import AnonContent
from tests.conftest import small_cluster_config, small_vm_config


def fault_cluster(fault_config, *, seed=1, **host_overrides):
    return Cluster(small_cluster_config(
        seed=seed, faults=fault_config, **host_overrides))


def thrash(vm, pages=1200, rounds=2):
    """Touch a footprint far above the resident limit to force host
    swap-out and genuine disk swap-ins."""
    hyp = vm.host.hypervisor
    for _ in range(rounds):
        for i in range(pages):
            hyp.touch_page(vm, 0x1000 + i, write=True)


# ----------------------------------------------------------------------
# host swap path
# ----------------------------------------------------------------------

def test_swap_read_failures_are_retried_not_silent():
    cfg = FaultConfig(enabled=True, swap_read_error_rate=0.4,
                      max_retries=20)
    cluster = fault_cluster(cfg, swap_writeback_batch_pages=16)
    vm = cluster.create_vm(small_vm_config(resident_limit_mib=1))
    thrash(vm)
    counts = vm.counters.snapshot()
    assert counts["swap_read_retries"] > 0
    # Every retried read also re-touched the disk; data always arrived.
    assert cluster.faults.counters.snapshot()["swap_read_retries"] == \
        counts["swap_read_retries"]


def test_swap_slot_corruption_surfaces_as_host_error():
    cfg = FaultConfig(enabled=True, swap_slot_corruption_rate=1.0)
    cluster = fault_cluster(cfg, swap_writeback_batch_pages=16)
    vm = cluster.create_vm(small_vm_config(resident_limit_mib=1))
    with pytest.raises(HostError, match="corrupted"):
        thrash(vm)
    assert vm.counters.snapshot()["swap_slot_corruptions"] == 1


def test_faultless_plan_leaves_swap_path_untouched():
    cfg = FaultConfig(enabled=True)  # all rates zero
    cluster = fault_cluster(cfg, swap_writeback_batch_pages=16)
    vm = cluster.create_vm(small_vm_config(resident_limit_mib=1))
    thrash(vm)
    counts = vm.counters.snapshot()
    assert counts["swap_read_retries"] == 0
    assert counts["swap_slot_corruptions"] == 0


# ----------------------------------------------------------------------
# mapper circuit breaker (the Section 4.1 fallback)
# ----------------------------------------------------------------------

def breaker_vm(threshold=3, rate=1.0):
    cfg = FaultConfig(enabled=True, mapper_invalidation_rate=rate,
                      mapper_breaker_threshold=threshold)
    return fault_cluster(cfg).create_vm(small_vm_config(
        vswapper=VSwapperConfig.mapper_only()))


def test_forced_invalidations_sever_associations():
    vm = breaker_vm(threshold=100)
    vm.host.hypervisor.virtio_read(vm, [Transfer(0, 0x100)])
    # rate=1.0: the association built by the read was invalidated.
    assert not vm.mapper.is_tracked(0x100)
    assert vm.counters.snapshot()["mapper_forced_invalidations"] == 1
    assert not vm.degraded


def test_repeated_faults_trip_the_breaker():
    vm = breaker_vm(threshold=3)
    hyp = vm.host.hypervisor
    for i in range(5):
        hyp.virtio_read(vm, [Transfer(i, 0x100 + i)])
    counts = vm.counters.snapshot()
    assert counts["mapper_breaker_trips"] == 1
    assert vm.degraded
    assert vm.mapper.disabled
    # Exactly `threshold` injections happened before tracking stopped.
    assert counts["mapper_forced_invalidations"] == 3


def test_degraded_vm_stops_tracking_but_keeps_running():
    vm = breaker_vm(threshold=2)
    hyp = vm.host.hypervisor
    for i in range(10):
        hyp.virtio_read(vm, [Transfer(i, 0x200 + i)])
    assert vm.mapper.disabled
    assert vm.mapper.tracked_pages == 0
    # Ordinary paths still work: touches, overwrites, more reads.
    hyp.touch_page(vm, 0x300, write=True,
                   new_content=AnonContent.fresh())
    hyp.virtio_read(vm, [Transfer(40, 0x400)])
    assert vm.mapper.tracked_pages == 0  # track() stays a no-op


def test_discarded_pages_survive_the_trip():
    """Associations discarded before the trip must stay refaultable --
    their only copy lives in the image."""
    vm = breaker_vm(threshold=1000, rate=0.0)
    hyp = vm.host.hypervisor
    hyp.virtio_read(vm, [Transfer(3, 0x500)])
    assert vm.mapper.is_tracked_resident(0x500)
    vm.mapper.mark_discarded(0x500)
    dropped = vm.mapper.disable()
    assert dropped == []  # only resident associations are severed
    assert vm.mapper.is_discarded(0x500)
    assert vm.mapper.block_of(0x500) == 3


def test_breaker_trips_fall_back_without_consistency_errors():
    """A tight VM that degrades mid-thrash finishes with verified data:
    the whole point of the Section 4.1 fallback."""
    cfg = FaultConfig(enabled=True, mapper_invalidation_rate=0.2,
                      mapper_breaker_threshold=4)
    cluster = fault_cluster(cfg, swap_writeback_batch_pages=16)
    host = cluster.hosts[0]
    vm = cluster.create_vm(small_vm_config(
        vswapper=VSwapperConfig.mapper_only(), resident_limit_mib=1))
    hyp = host.hypervisor
    for i in range(400):
        if i % 3 == 0:
            hyp.virtio_read(vm, [Transfer(i % 256, 0x100 + i % 512)])
        else:
            hyp.touch_page(vm, 0x100 + i % 512, write=(i % 2 == 0))
    assert vm.degraded
    assert vm.counters.snapshot()["mapper_breaker_trips"] == 1
    # Frame accounting stayed exact through the degradation.
    accounted = (vm.ept.resident_pages + len(vm.qemu.resident)
                 + len(vm.swap_cache))
    assert host.frames.used == accounted
