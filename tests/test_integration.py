"""End-to-end invariants across full workload runs.

These tests run real workloads through the whole stack and assert
system-level properties: frame conservation, content consistency,
determinism, and the headline behavioural claims of the paper.
"""

import pytest

from repro.cluster import Cluster
from repro.config import VSwapperConfig
from repro.driver import VmDriver
from repro.units import mib_pages
from repro.workloads.alloctouch import SysbenchThenAlloc
from repro.workloads.sysbench import SysbenchFileRead
from tests.conftest import (
    small_guest_config,
    small_cluster_config,
    small_vm_config,
)


def run_sysbench(cluster, vm, iterations=2, file_pages=1024):
    vm.guest.fs.create_file("sysbench.dat", file_pages)
    workload = SysbenchFileRead(
        file_pages=file_pages, iterations=iterations, chunk_pages=128)
    driver = VmDriver(vm, workload)
    cluster.run()
    assert driver.done and not driver.crashed
    return driver


def frames_accounted(cluster):
    total = 0
    for vm in cluster.vms:
        total += vm.ept.resident_pages
        total += len(vm.qemu.resident)
        total += len(vm.swap_cache)
    return total


def test_frame_conservation_after_pressure_run(cluster, host, tight_vm):
    run_sysbench(cluster, tight_vm)
    assert host.frames.used == frames_accounted(cluster)


def test_resident_limit_respected_throughout(cluster, tight_vm):
    run_sysbench(cluster, tight_vm)
    assert tight_vm.resident_pages <= tight_vm.resident_limit


def test_swap_slot_ownership_consistent(cluster, host, tight_vm):
    run_sysbench(cluster, tight_vm)
    hyp = host.hypervisor
    for gpa, slot in tight_vm.swap_slots.items():
        owner = hyp.slot_owner.get(slot)
        assert owner is not None
        assert owner[0] is tight_vm and owner[1] == gpa
        assert host.swap_area.is_allocated(slot)


def test_mapper_tracked_pages_match_image_content(cluster, vswapper_vm):
    run_sysbench(cluster, vswapper_vm)
    vm = vswapper_vm
    mapper = vm.mapper
    for gpa in list(vm.ept.present_gpas()):
        if mapper.is_tracked_resident(gpa):
            block = mapper.block_of(gpa)
            assert vm.image.matches(block, vm.content_of(gpa))


def test_same_seed_is_bit_identical():
    def one_run():
        cluster = Cluster(
            small_cluster_config(reclaim_noise=0.06))
        vm = cluster.create_vm(small_vm_config(resident_limit_mib=4))
        vm.host.boot_guest(vm)
        driver = run_sysbench(cluster, vm)
        return driver.runtime, vm.counters.snapshot()

    run_a = one_run()
    run_b = one_run()
    assert run_a == run_b


def test_different_seed_differs():
    def one_run(seed):
        cluster = Cluster(small_cluster_config(reclaim_noise=0.2, seed=seed))
        vm = cluster.create_vm(small_vm_config(resident_limit_mib=4))
        vm.host.boot_guest(vm)
        return run_sysbench(cluster, vm).runtime

    assert one_run(1) != one_run(2)


def test_vswapper_beats_baseline_under_pressure():
    def runtime_for(vswapper):
        cluster = Cluster(
            small_cluster_config(reclaim_noise=0.06))
        vm = cluster.create_vm(small_vm_config(
            vswapper=vswapper, resident_limit_mib=4))
        vm.host.boot_guest(vm)
        return run_sysbench(
            cluster, vm, iterations=3, file_pages=2048).runtime

    baseline = runtime_for(VSwapperConfig.off())
    vswapper = runtime_for(VSwapperConfig.full())
    assert vswapper < baseline / 2


def test_vswapper_eliminates_swap_writes_for_clean_pages():
    cluster = Cluster(small_cluster_config())
    vm = cluster.create_vm(small_vm_config(
        vswapper=VSwapperConfig.full(), resident_limit_mib=4))
    # No boot: a clean cache workload only.
    run_sysbench(cluster, vm, file_pages=2048)
    baseline_cluster = Cluster(small_cluster_config())
    baseline_vm = baseline_cluster.create_vm(
        small_vm_config(resident_limit_mib=4))
    run_sysbench(baseline_cluster, baseline_vm, file_pages=2048)
    assert (vm.counters.swap_sectors_written
            < baseline_vm.counters.swap_sectors_written / 4)


def test_preventer_eliminates_false_read_disk_traffic():
    def run_alloc(vswapper):
        cluster = Cluster(small_cluster_config())
        vm = cluster.create_vm(small_vm_config(
            vswapper=vswapper, resident_limit_mib=4))
        vm.host.boot_guest(vm)
        vm.guest.fs.create_file("sysbench.dat", 1024)
        workload = SysbenchThenAlloc(file_pages=1024, alloc_pages=1024)
        driver = VmDriver(vm, workload)
        cluster.run()
        assert driver.done and not driver.crashed
        return vm

    mapper_vm = run_alloc(VSwapperConfig.mapper_only())
    full_vm = run_alloc(VSwapperConfig.full())
    assert full_vm.counters.false_reads == 0
    assert mapper_vm.counters.false_reads > 0
    assert full_vm.counters.preventer_remaps > 0


def test_ballooned_guest_avoids_host_swapping(cluster, host):
    vm = cluster.create_vm(small_vm_config(resident_limit_mib=6))
    host.boot_guest(vm)
    host.apply_static_balloon(
        vm, vm.cfg.guest.memory_pages - mib_pages(6))
    run_sysbench(cluster, vm)
    # The guest constrained itself: essentially no uncooperative swap.
    assert vm.counters.swap_sectors_written == 0


def test_content_never_lost_across_swap_cycles(cluster, tight_vm):
    """Write distinctive content, thrash, and read it back."""
    from repro.sim.ops import Alloc, Touch
    from repro.guest.anon import PageLocation
    guest = tight_vm.guest
    guest.execute(Alloc("precious", 64))
    guest.execute(Touch("precious", 0, 64, write=True))
    region = guest.anon.region("precious")
    before = {}
    for index, state in enumerate(region.pages):
        assert state.location is PageLocation.MEMORY
        before[index] = tight_vm.content_of(state.where)
    # Thrash with a big read so 'precious' pages get host-swapped.
    run_sysbench(cluster, tight_vm)
    guest.execute(Touch("precious", 0, 64, write=False))
    for index, state in enumerate(region.pages):
        if state.location is PageLocation.MEMORY:
            assert tight_vm.content_of(state.where) == before[index]
