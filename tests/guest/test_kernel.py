"""Guest kernel behaviour over a real hypervisor."""

import pytest

from repro.cluster import Cluster
from repro.errors import GuestOomKill
from repro.sim.ops import (
    Alloc,
    Compute,
    DropCaches,
    FileRead,
    FileSync,
    FileWrite,
    Free,
    MarkPhase,
    Touch,
)
from tests.conftest import (
    small_guest_config,
    small_cluster_config,
    small_vm_config,
)


def run(vm, *ops):
    for op in ops:
        vm.guest.execute(op)


def test_file_read_populates_cache(vm):
    vm.guest.fs.create_file("f", 64)
    run(vm, FileRead("f", 0, 64))
    assert vm.guest.cache.cached_pages == 64
    assert vm.guest.cache.dirty_pages == 0


def test_second_read_hits_cache(vm):
    vm.guest.fs.create_file("f", 64)
    run(vm, FileRead("f", 0, 64))
    ops_before = vm.counters.disk_ops
    run(vm, FileRead("f", 0, 64))
    assert vm.counters.disk_ops == ops_before


def test_read_batches_into_readahead_requests(vm):
    vm.guest.fs.create_file("f", 64)
    run(vm, FileRead("f", 0, 64))
    # 64 pages at a 32-page readahead window: two image requests (plus
    # possibly a hypervisor-code fault read).
    assert vm.counters.virtual_io_sectors == 64 * 8
    assert vm.counters.disk_ops <= 4


def test_file_write_dirties_cache(vm):
    vm.guest.fs.create_file("f", 16)
    run(vm, FileWrite("f", 0, 16))
    assert vm.guest.cache.dirty_pages == 16


def test_fsync_cleans_dirty_pages(vm):
    vm.guest.fs.create_file("f", 16)
    run(vm, FileWrite("f", 0, 16), FileSync("f"))
    assert vm.guest.cache.dirty_pages == 0
    assert vm.counters.virtual_io_sectors >= 16 * 8


def test_write_back_threshold_triggers(cluster):
    guest = small_guest_config(dirty_threshold_fraction=0.01)
    vm = cluster.create_vm(small_vm_config(guest=guest))
    vm.guest.fs.create_file("f", 256)
    run(vm, FileWrite("f", 0, 256))
    assert vm.guest.cache.dirty_pages < 256


def test_overwriting_cached_file_page_dirties_it_again(vm):
    vm.guest.fs.create_file("f", 4)
    run(vm, FileWrite("f", 0, 4), FileSync("f"), FileWrite("f", 0, 4))
    assert vm.guest.cache.dirty_pages == 4


def test_drop_caches_frees_clean_only(vm):
    vm.guest.fs.create_file("f", 32)
    run(vm, FileRead("f", 0, 32), FileWrite("f", 0, 4), DropCaches())
    assert vm.guest.cache.cached_pages == 4
    assert vm.guest.cache.dirty_pages == 4


def test_alloc_is_lazy(vm):
    free_before = len(vm.guest.free_list)
    run(vm, Alloc("heap", 64))
    assert len(vm.guest.free_list) == free_before


def test_touch_materializes_pages(vm):
    run(vm, Alloc("heap", 64), Touch("heap", 0, 64, write=True))
    assert vm.guest.anon.resident_pages() == 64


def test_touch_stride(vm):
    run(vm, Alloc("heap", 64), Touch("heap", 0, 64, stride=2))
    assert vm.guest.anon.resident_pages() == 32


def test_free_returns_pages(vm):
    run(vm, Alloc("heap", 64), Touch("heap", 0, 64, write=True))
    free_before = len(vm.guest.free_list)
    run(vm, Free("heap"))
    assert len(vm.guest.free_list) == free_before + 64


def test_compute_charges_cpu(vm):
    vm.costs.reset()
    run(vm, Compute(1.5))
    assert vm.costs.cpu_seconds == 1.5


def test_guest_reclaim_drops_clean_cache_under_pressure(vm):
    # Fill believed memory with cache, then allocate: the guest must
    # reclaim its own clean pages.
    guest = vm.guest
    usable = guest.cfg.memory_pages - guest.cfg.kernel_reserve_pages
    vm.guest.fs.create_file("big", usable - 128)
    run(vm, FileRead("big", 0, usable - 128))
    run(vm, Alloc("heap", 256), Touch("heap", 0, 256, write=True))
    assert guest.cache.cached_pages < usable - 128
    # Most of the heap stays resident; stragglers may have been swapped
    # by the guest's own reclaim racing the touch loop.
    resident = guest.anon.resident_pages()
    swapped = guest.gswap.used_slots
    assert resident + swapped == 256
    assert resident > 128


def test_guest_swaps_anon_when_cache_exhausted(vm):
    guest = vm.guest
    usable = guest.cfg.memory_pages - guest.cfg.kernel_reserve_pages
    run(vm, Alloc("heap", usable - 64),
        Touch("heap", 0, usable - 64, write=True))
    run(vm, Alloc("heap2", 512), Touch("heap2", 0, 512, write=True))
    assert guest.gswap.used_slots > 0
    assert vm.counters.guest_swap_sectors_written > 0


def test_guest_swap_in_faults_back(vm):
    guest = vm.guest
    usable = guest.cfg.memory_pages - guest.cfg.kernel_reserve_pages
    run(vm, Alloc("heap", usable - 64),
        Touch("heap", 0, usable - 64, write=True))
    run(vm, Alloc("heap2", 512), Touch("heap2", 0, 512, write=True))
    swapped = guest.gswap.used_slots
    assert swapped > 0
    # Touch the early pages again: they must come back from guest swap.
    run(vm, Touch("heap", 0, 512, write=False))
    assert vm.counters.guest_swap_faults > 0


def test_min_resident_recorded_via_markphase(vm):
    run(vm, MarkPhase("x", {"min_resident_pages": 123}))
    assert vm.guest.workload_min_resident == 123


def test_balloon_inflate_pins_pages(vm):
    guest = vm.guest
    inflated = guest.inflate(256)
    assert inflated == 256
    assert guest.balloon_size == 256
    assert len(vm.ballooned) == 256


def test_balloon_deflate_returns_pages(vm):
    guest = vm.guest
    guest.inflate(256)
    free_before = len(guest.free_list)
    guest.deflate(100)
    assert guest.balloon_size == 156
    assert len(guest.free_list) == free_before + 100


def test_apply_balloon_moves_toward_target(vm):
    guest = vm.guest
    guest.set_balloon_target(300)
    assert guest.apply_balloon(max_delta=100) == 100
    assert guest.balloon_size == 100
    guest.set_balloon_target(50)
    assert guest.apply_balloon(max_delta=100) == -50
    assert guest.balloon_size == 50


def test_over_ballooning_kills_workload(vm):
    guest = vm.guest
    guest.workload_min_resident = guest.cfg.memory_pages
    with pytest.raises(GuestOomKill):
        guest.inflate(512)
    assert guest.oom_killed
    assert vm.counters.oom_kills == 1


def test_demand_spike_kills_under_balloon(vm):
    guest = vm.guest
    guest.inflate(guest.cfg.memory_pages // 2)
    spike = MarkPhase("spike", {
        "min_resident_pages": guest.cfg.memory_pages})
    with pytest.raises(GuestOomKill):
        run(vm, spike)
    assert guest.oom_killed


def test_oom_killed_guest_refuses_to_run(vm):
    guest = vm.guest
    guest.workload_min_resident = guest.cfg.memory_pages
    with pytest.raises(GuestOomKill):
        guest.inflate(512)
    with pytest.raises(GuestOomKill):
        run(vm, Compute(1.0))


def test_memory_stats_consistency(vm):
    vm.guest.fs.create_file("f", 32)
    run(vm, FileRead("f", 0, 32), Alloc("h", 16),
        Touch("h", 0, 16, write=True))
    stats = vm.guest.memory_stats()
    assert stats["cache_clean"] == 32
    assert stats["anon_resident"] == 16
    accounted = (stats["free"] + stats["cache_clean"]
                 + stats["cache_dirty"] + stats["anon_resident"]
                 + stats["pinned"] + stats["kernel_reserve"])
    assert accounted == stats["total"]


def test_windows_guest_zeroes_free_pages(cluster):
    from repro.config import GuestOsKind
    guest_cfg = small_guest_config(
        os_kind=GuestOsKind.WINDOWS, zero_free_pages=True)
    vm = cluster.create_vm(small_vm_config(guest=guest_cfg))
    # Dirty some pages, free them, then run another op: the zero-page
    # thread should rewrite recycled frames with zeroes.
    run(vm, Alloc("h", 64), Touch("h", 0, 64, write=True), Free("h"))
    run(vm, Compute(0.001))
    from repro.mem.page import ZERO
    zeroed = sum(1 for gpa in vm.guest.free_list
                 if vm.content_of(gpa) is ZERO)
    assert zeroed > 0


def test_unaligned_io_fraction_marks_transfers(cluster):
    guest_cfg = small_guest_config(unaligned_io_fraction=1.0)
    vm = cluster.create_vm(small_vm_config(guest=guest_cfg))
    assert not vm.guest._aligned()


def test_inflate_oom_mid_run_keeps_taken_pages_pinned():
    """An OOM kill partway through inflation leaves the pages taken so
    far pinned, exactly as page-at-a-time inflation did."""
    from repro.mem.page import AnonContent
    from tests.host.overwrite_oracle import alloc_gpa

    def build():
        cluster = Cluster(small_cluster_config())
        host = cluster.hosts[0]
        vm = cluster.create_vm(small_vm_config(guest=small_guest_config(
            allocator_window=8, guest_swap_pages=16)))
        guest = vm.guest
        guest.anon.commit("heap", 2000)
        for index in range(2000):
            gpa = alloc_gpa(guest)
            host.hypervisor.touch_page(vm, gpa, True, AnonContent(index))
            guest.anon.place_in_memory("heap", index, gpa)
            guest.scanner.note_resident(gpa, named=False)
        return vm, guest

    vm, guest = build()
    _, twin = build()
    expected: list[int] = []
    with pytest.raises(GuestOomKill):
        for _ in range(3000):
            expected.append(alloc_gpa(twin))
    with pytest.raises(GuestOomKill):
        guest.inflate(3000)
    assert expected and guest.balloon_pinned == set(expected)
    assert guest.free_list == twin.free_list
    assert vm.counters.balloon_inflated_pages == 0
