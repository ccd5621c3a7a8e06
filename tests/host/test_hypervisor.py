"""Hypervisor fault paths: the five pathologies and their cures."""

import dataclasses

import pytest

from repro.cluster import Cluster
from repro.config import VSwapperConfig
from repro.errors import HostError
from repro.guest.kernel import Transfer
from repro.mem.page import ZERO, AnonContent
from repro.sim.ops import WritePattern
from tests.conftest import small_cluster_config, small_vm_config


@pytest.fixture
def hyp(host):
    return host.hypervisor


def fill_to_limit(vm, start_gpa=0x100, extra=0):
    """Touch pages until the VM sits at its resident limit + extra."""
    limit = vm.resident_limit
    n = limit + extra
    for i in range(n):
        vm.host.hypervisor.touch_page(vm, start_gpa + i, write=True)
    return start_gpa, n


# ----------------------------------------------------------------------
# basic mapping
# ----------------------------------------------------------------------

def test_first_touch_maps_fresh_zero_page(hyp, vm):
    hyp.touch_page(vm, 0x10)
    assert vm.ept.is_present(0x10)
    assert vm.content_of(0x10) is ZERO
    assert vm.counters.guest_context_faults == 0  # minor, not major


def test_store_makes_content_anonymous(hyp, vm):
    hyp.touch_page(vm, 0x10, write=True)
    assert isinstance(vm.content_of(0x10), AnonContent)


def test_repeated_store_keeps_token(hyp, vm):
    hyp.touch_page(vm, 0x10, write=True)
    first = vm.content_of(0x10)
    hyp.touch_page(vm, 0x10, write=True)
    assert vm.content_of(0x10) == first


def test_frames_tracked_in_pool(hyp, host, vm):
    used = host.frames.used
    hyp.touch_page(vm, 0x10)
    assert host.frames.used == used + 1


# ----------------------------------------------------------------------
# uncooperative swap-out / swap-in
# ----------------------------------------------------------------------

def test_resident_limit_forces_eviction(tight_vm):
    fill_to_limit(tight_vm, extra=64)
    assert tight_vm.resident_pages <= tight_vm.resident_limit
    assert tight_vm.counters.host_evictions > 0
    assert len(tight_vm.swap_slots) > 0


def test_swap_out_writes_every_page(host, tight_vm):
    """No dirty bit for guest pages: everything is written."""
    fill_to_limit(tight_vm, extra=512)
    host.hypervisor._flush_swap_writes(tight_vm)
    written = tight_vm.counters.swap_sectors_written // 8
    swapped = len(tight_vm.swap_slots)
    assert written >= swapped > 0


def test_swap_in_restores_content(host, tight_vm):
    hyp = host.hypervisor
    start, n = fill_to_limit(tight_vm, extra=256)
    victim = next(iter(tight_vm.swap_slots))
    content = tight_vm.content_of(victim)
    hyp.touch_page(tight_vm, victim)
    assert tight_vm.ept.is_present(victim)
    assert tight_vm.content_of(victim) == content
    assert tight_vm.counters.guest_context_faults >= 1


def test_swap_cache_hit_avoids_disk(host, tight_vm):
    """A page whose write-back is still pending refaults for free."""
    hyp = host.hypervisor
    fill_to_limit(tight_vm, extra=8)
    pending = [g for g in tight_vm.pending_swap]
    assert pending
    reads_before = tight_vm.counters.swap_sectors_read
    hyp.touch_page(tight_vm, pending[0])
    assert tight_vm.counters.swap_sectors_read == reads_before
    assert tight_vm.counters.extra.get("swap_cache_hits", 0) >= 1


def test_silent_swap_writes_detected(host, tight_vm):
    """Pages identical to their image blocks still get written -- and
    counted as silent."""
    hyp = host.hypervisor
    transfers = [Transfer(100 + i, 0x100 + i) for i in range(64)]
    hyp.virtio_read(tight_vm, transfers)
    fill_to_limit(tight_vm, start_gpa=0x4000,
                  extra=128)
    assert tight_vm.counters.silent_swap_writes > 0


# ----------------------------------------------------------------------
# stale swap reads
# ----------------------------------------------------------------------

def test_stale_read_on_swapped_dma_destination(host, tight_vm):
    hyp = host.hypervisor
    fill_to_limit(tight_vm, extra=512)
    hyp._flush_swap_writes(tight_vm)
    victim = next(iter(tight_vm.swap_slots))
    hyp.virtio_read(tight_vm, [Transfer(500, victim)])
    assert tight_vm.counters.stale_reads == 1
    assert tight_vm.counters.host_context_faults >= 1


def test_no_stale_read_for_resident_destination(host, vm):
    hyp = host.hypervisor
    hyp.touch_page(vm, 0x20, write=True)
    hyp.virtio_read(vm, [Transfer(500, 0x20)])
    assert vm.counters.stale_reads == 0


def test_mapper_eliminates_stale_reads(cluster, host):
    vm = cluster.create_vm(small_vm_config(
        vswapper=VSwapperConfig.mapper_only(), resident_limit_mib=4))
    hyp = host.hypervisor
    # Read file blocks (tracked), force discards, then DMA into the
    # discarded destinations: no stale read should occur.
    transfers = [Transfer(100 + i, 0x100 + i) for i in range(2048)]
    hyp.virtio_read(vm, transfers)
    discarded = [g for g in (0x100 + i for i in range(2048))
                 if vm.mapper.is_discarded(g)]
    assert discarded
    hyp.virtio_read(vm, [Transfer(5000, discarded[0])])
    assert vm.counters.stale_reads == 0


# ----------------------------------------------------------------------
# false swap reads and the Preventer
# ----------------------------------------------------------------------

def overwrite(hyp, vm, gpa, pattern=WritePattern.FULL_SEQUENTIAL):
    hyp.overwrite_page(vm, gpa, AnonContent.fresh(), pattern)


def test_false_read_on_swapped_overwrite_baseline(host, tight_vm):
    hyp = host.hypervisor
    fill_to_limit(tight_vm, extra=512)
    hyp._flush_swap_writes(tight_vm)
    victim = next(iter(tight_vm.swap_slots))
    overwrite(hyp, tight_vm, victim)
    assert tight_vm.counters.false_reads == 1


def test_preventer_remaps_full_overwrite(cluster, host):
    vm = cluster.create_vm(small_vm_config(
        vswapper=VSwapperConfig(enable_preventer=True),
        resident_limit_mib=4))
    hyp = host.hypervisor
    fill_to_limit(vm, extra=512)
    hyp._flush_swap_writes(vm)
    victim = next(iter(vm.swap_slots))
    reads_before = vm.counters.swap_sectors_read
    overwrite(hyp, vm, victim)
    assert vm.counters.false_reads == 0
    assert vm.counters.preventer_remaps == 1
    assert vm.counters.swap_sectors_read == reads_before
    assert victim not in vm.swap_slots  # old backing dropped


def test_preventer_scattered_pattern_falls_back(cluster, host):
    vm = cluster.create_vm(small_vm_config(
        vswapper=VSwapperConfig(enable_preventer=True),
        resident_limit_mib=4))
    hyp = host.hypervisor
    fill_to_limit(vm, extra=512)
    hyp._flush_swap_writes(vm)
    victim = next(iter(vm.swap_slots))
    overwrite(hyp, vm, victim, WritePattern.SCATTERED)
    assert vm.counters.false_reads == 1
    assert vm.counters.preventer_remaps == 0


def test_preventer_partial_write_buffers_then_merges(cluster, host):
    vm = cluster.create_vm(small_vm_config(
        vswapper=VSwapperConfig(enable_preventer=True),
        resident_limit_mib=4))
    hyp = host.hypervisor
    fill_to_limit(vm, extra=512)
    hyp._flush_swap_writes(vm)
    victim = next(iter(vm.swap_slots))
    overwrite(hyp, vm, victim, WritePattern.PARTIAL)
    assert vm.preventer.is_emulated(victim)
    assert not vm.ept.is_present(victim)
    # Let the 1ms window lapse; the next op polls and merges.
    cluster.engine.clock.advance_by(0.002)
    hyp.touch_page(vm, 0x9000)
    assert not vm.preventer.is_emulated(victim)
    assert vm.ept.is_present(victim)
    assert vm.counters.preventer_merges == 1


def test_preventer_read_of_buffered_page_merges_synchronously(cluster, host):
    vm = cluster.create_vm(small_vm_config(
        vswapper=VSwapperConfig(enable_preventer=True),
        resident_limit_mib=4))
    hyp = host.hypervisor
    fill_to_limit(vm, extra=512)
    hyp._flush_swap_writes(vm)
    victim = next(iter(vm.swap_slots))
    overwrite(hyp, vm, victim, WritePattern.PARTIAL)
    hyp.touch_page(vm, victim)   # guest reads unbuffered bytes
    assert vm.ept.is_present(victim)
    assert vm.counters.preventer_merges == 1


def test_image_readahead_skips_a_buffered_discarded_neighbour(
        cluster, host):
    """A Mapper-discarded page under Preventer emulation already holds
    its new content, so image readahead must not refault it; its
    expiry merge still reads the old block."""
    vm = cluster.create_vm(small_vm_config(
        vswapper=dataclasses.replace(VSwapperConfig.full(),
                                     preventer_max_pages=1),
        resident_limit_mib=4))
    hyp = host.hypervisor
    hyp.virtio_read(vm, [Transfer(100 + i, 0x100 + i) for i in range(2048)])
    # 1. Two pages of consecutive image blocks, both discarded.
    first = next(g for g in range(0x100, 0x100 + 2047)
                 if vm.mapper.is_discarded(g)
                 and vm.mapper.is_discarded(g + 1))
    second = first + 1
    assert vm.mapper.block_of(second) == vm.mapper.block_of(first) + 1
    # 2. A partial overwrite buffers the second page.
    hyp.overwrite_page(vm, second, AnonContent(7), WritePattern.PARTIAL)
    assert vm.preventer.is_emulated(second)
    # 3. The cap is reached, so the first page's overwrite falls back to
    # a false read, whose readahead would cover the second block.
    hyp.overwrite_page(vm, first, AnonContent(8), WritePattern.PARTIAL)
    assert vm.counters.false_reads == 1
    assert vm.ept.is_present(first)
    assert not vm.ept.is_present(second)
    assert vm.preventer.is_emulated(second)
    assert vm.mapper.is_discarded(second)
    # The window lapses: the merge reads the old block, maps the page
    # with the buffered content, and drops the Mapper association.
    sectors = host.disk.stats.sectors_read
    cluster.engine.clock.advance_by(0.002)
    hyp.touch_page(vm, 0x9000)
    assert vm.counters.preventer_merges == 1
    assert host.disk.stats.sectors_read > sectors
    assert vm.ept.is_present(second)
    assert vm.content_of(second) == AnonContent(7)
    assert not vm.mapper.is_tracked(second)


# ----------------------------------------------------------------------
# Swap Mapper
# ----------------------------------------------------------------------

def make_mapper_vm(cluster, limit_mib=4):
    return cluster.create_vm(small_vm_config(
        vswapper=VSwapperConfig.mapper_only(),
        resident_limit_mib=limit_mib))


def test_virtio_read_tracks_pages(cluster, host):
    vm = make_mapper_vm(cluster, limit_mib=8)
    host.hypervisor.virtio_read(vm, [Transfer(100, 0x10)])
    assert vm.mapper.is_tracked_resident(0x10)
    assert vm.mapper.block_of(0x10) == 100
    assert vm.scanner.is_named(0x10)


def test_virtio_write_tracks_after_write(cluster, host):
    vm = make_mapper_vm(cluster, limit_mib=8)
    host.hypervisor.touch_page(vm, 0x10, write=True)
    host.hypervisor.virtio_write(vm, [Transfer(200, 0x10)])
    assert vm.mapper.is_tracked_resident(0x10)
    # The page equals the block it was just written to.
    assert vm.image.matches(200, vm.content_of(0x10))


def test_guest_store_breaks_cow(cluster, host):
    vm = make_mapper_vm(cluster, limit_mib=8)
    hyp = host.hypervisor
    hyp.virtio_read(vm, [Transfer(100, 0x10)])
    hyp.touch_page(vm, 0x10, write=True)
    assert not vm.mapper.is_tracked(0x10)
    assert vm.counters.mapper_cow_breaks == 1
    assert not vm.scanner.is_named(0x10)


def test_eviction_discards_tracked_pages_without_write(cluster, host):
    vm = make_mapper_vm(cluster)
    hyp = host.hypervisor
    transfers = [Transfer(100 + i, 0x100 + i) for i in range(2048)]
    hyp.virtio_read(vm, transfers)
    assert vm.counters.mapper_discards > 0
    assert vm.counters.swap_sectors_written == 0


def test_refault_reads_from_image_with_readahead(cluster, host):
    vm = make_mapper_vm(cluster)
    hyp = host.hypervisor
    transfers = [Transfer(100 + i, 0x100 + i) for i in range(2048)]
    hyp.virtio_read(vm, transfers)
    discarded = sorted(
        g for g in (0x100 + i for i in range(2048))
        if vm.mapper.is_discarded(g))
    target = discarded[0]
    faults_before = vm.counters.guest_context_faults
    hyp.touch_page(vm, target)
    assert vm.ept.is_present(target)
    assert vm.mapper.is_tracked_resident(target)
    assert vm.counters.guest_context_faults == faults_before + 1
    # Readahead mapped neighbouring discarded blocks too.
    refault_sectors = vm.counters.extra.get("image_refault_sectors", 0)
    assert refault_sectors >= 8


def test_consistency_invalidation_on_block_overwrite(cluster, host):
    vm = make_mapper_vm(cluster, limit_mib=8)
    hyp = host.hypervisor
    hyp.virtio_read(vm, [Transfer(100, 0x10)])
    # Another page writes to block 100 through ordinary I/O.
    hyp.touch_page(vm, 0x20, write=True)
    hyp.virtio_write(vm, [Transfer(100, 0x20)])
    assert not vm.mapper.is_tracked(0x10)  # old association severed
    assert vm.mapper.is_tracked_resident(0x20)


def test_consistency_invalidation_fetches_discarded_content(cluster, host):
    vm = make_mapper_vm(cluster)
    hyp = host.hypervisor
    transfers = [Transfer(100 + i, 0x100 + i) for i in range(2048)]
    hyp.virtio_read(vm, transfers)
    discarded = [g for g in (0x100 + i for i in range(2048))
                 if vm.mapper.is_discarded(g)]
    victim = discarded[0]
    block = vm.mapper.block_of(victim)
    old_content = vm.content_of(victim)
    hyp.touch_page(vm, 0x9000, write=True)
    hyp.virtio_write(vm, [Transfer(block, 0x9000)])
    # C0 was fetched before C1 hit the disk: the page is resident with
    # its old bytes, no longer tracked.
    assert vm.ept.is_present(victim)
    assert vm.content_of(victim) == old_content
    assert not vm.mapper.is_tracked(victim)
    assert vm.counters.mapper_invalidations == 1


def test_block_overwrite_merges_a_buffered_discarded_owner(cluster, host):
    """Ordinary I/O to the block of a discarded page under Preventer
    emulation merges the buffer first (reading the old block), instead
    of refaulting content the buffered overwrite already replaced."""
    vm = cluster.create_vm(small_vm_config(
        vswapper=VSwapperConfig.full(), resident_limit_mib=4))
    hyp = host.hypervisor
    hyp.virtio_read(vm, [Transfer(100 + i, 0x100 + i) for i in range(2048)])
    victim = next(g for g in range(0x100, 0x100 + 2048)
                  if vm.mapper.is_discarded(g))
    block = vm.mapper.block_of(victim)
    hyp.overwrite_page(vm, victim, AnonContent(7), WritePattern.PARTIAL)
    assert vm.preventer.is_emulated(victim)
    sectors = host.disk.stats.sectors_read
    hyp.touch_page(vm, 0x5000, write=True)
    hyp.virtio_write(vm, [Transfer(block, 0x5000)])
    assert not vm.preventer.is_emulated(victim)
    assert vm.counters.preventer_merges == 1
    assert vm.counters.mapper_invalidations == 1
    assert host.disk.stats.sectors_read > sectors
    assert vm.ept.is_present(victim)
    assert vm.content_of(victim) == AnonContent(7)
    assert not vm.mapper.is_tracked(victim)
    assert vm.mapper.is_tracked_resident(0x5000)


def test_unaligned_transfers_not_tracked(cluster, host):
    vm = make_mapper_vm(cluster, limit_mib=8)
    host.hypervisor.virtio_read(
        vm, [Transfer(100, 0x10, aligned=False)])
    assert not vm.mapper.is_tracked(0x10)


# ----------------------------------------------------------------------
# false page anonymity (QEMU code pages)
# ----------------------------------------------------------------------

def test_code_pages_evicted_in_baseline_under_pressure(host, tight_vm):
    fill_to_limit(tight_vm, extra=2048)
    # Drive more virtual I/O: code refaults should show up.
    hyp = host.hypervisor
    for i in range(64):
        hyp.virtio_read(tight_vm, [Transfer(3000 + i, 0x8000 + i)])
    assert tight_vm.counters.hypervisor_code_faults > 0


def test_mapper_protects_code_pages(cluster, host):
    vm = make_mapper_vm(cluster)
    hyp = host.hypervisor
    transfers = [Transfer(100 + i, 0x100 + i) for i in range(2048)]
    hyp.virtio_read(vm, transfers)
    for i in range(64):
        hyp.virtio_read(vm, [Transfer(5000 + i, 0x8000 + i)])
    baseline_vm = cluster.create_vm(small_vm_config(
        name="vmb", resident_limit_mib=4))
    for i in range(2048):
        hyp.touch_page(baseline_vm, 0x100 + i, write=True)
    for i in range(64):
        hyp.virtio_read(baseline_vm, [Transfer(5000 + i, 0x8000 + i)])
    assert (vm.counters.hypervisor_code_faults
            <= baseline_vm.counters.hypervisor_code_faults)


# ----------------------------------------------------------------------
# double paging, balloon, misc
# ----------------------------------------------------------------------

def test_double_paging_on_guest_writeback_of_swapped_page(
        host, tight_vm):
    hyp = host.hypervisor
    fill_to_limit(tight_vm, extra=512)
    hyp._flush_swap_writes(tight_vm)
    victim = next(iter(tight_vm.swap_slots))
    hyp.virtio_write(tight_vm, [Transfer(700, victim)])
    assert tight_vm.counters.double_paging == 1


def test_balloon_pin_releases_everything(host, tight_vm):
    hyp = host.hypervisor
    fill_to_limit(tight_vm, extra=512)
    resident_victim = next(iter(tight_vm.ept.present_gpas()))
    swapped_victim = next(iter(tight_vm.swap_slots))
    used_before = host.frames.used
    hyp.balloon_pin(tight_vm, [resident_victim, swapped_victim])
    assert not tight_vm.ept.is_present(resident_victim)
    assert swapped_victim not in tight_vm.swap_slots
    assert host.frames.used == used_before - 1
    assert tight_vm.content_of(resident_victim) is ZERO
    hyp.balloon_unpin(tight_vm, [resident_victim])
    assert resident_victim not in tight_vm.ballooned


def test_fault_on_unbacked_page_is_error(host, vm):
    with pytest.raises(HostError):
        host.hypervisor._fault_in(vm, 0x999, "guest")


def test_page_needs_zeroing(host, vm):
    hyp = host.hypervisor
    assert not hyp.page_needs_zeroing(vm, 0x50)  # untouched => ZERO
    hyp.touch_page(vm, 0x50, write=True)
    assert hyp.page_needs_zeroing(vm, 0x50)


def test_global_pressure_reclaims_biggest_vm():
    cluster = Cluster(small_cluster_config(
        total_memory_pages=3000))
    host = cluster.hosts[0]
    hyp = host.hypervisor
    big = cluster.create_vm(small_vm_config(name="big"))
    small = cluster.create_vm(small_vm_config(name="small"))
    for i in range(2000):
        hyp.touch_page(big, 0x100 + i, write=True)
    for i in range(500):
        hyp.touch_page(small, 0x100 + i, write=True)
    # The next allocations must squeeze the big VM, not the small one.
    for i in range(700):
        hyp.touch_page(small, 0x5000 + i, write=True)
    assert big.counters.host_evictions > 0
    assert host.frames.used <= host.frames.total_frames


def test_hardware_dirty_bit_skips_clean_rewrites():
    cluster = Cluster(
        small_cluster_config(hardware_dirty_bit=True))
    host = cluster.hosts[0]
    vm = cluster.create_vm(small_vm_config(resident_limit_mib=4))
    hyp = host.hypervisor
    fill_to_limit(vm, extra=512)
    hyp._flush_swap_writes(vm)
    written_before = vm.counters.swap_sectors_written
    # Fault pages back (read-only) and force re-eviction.
    victims = list(vm.swap_slots)[:64]
    for gpa in victims:
        hyp.touch_page(vm, gpa)  # read: stays clean
    for i in range(1024):
        hyp.touch_page(vm, 0x20000 + i, write=True)
    hyp._flush_swap_writes(vm)
    rewritten = vm.counters.swap_sectors_written - written_before
    # Only the genuinely dirty pages (the 1024 new stores, plus a few
    # displaced) get written; the clean refaulted pages reuse their
    # retained slots with no I/O.
    assert rewritten <= (1024 + 64) * 8


def test_windows_unaligned_io_defeats_the_mapper(cluster):
    """A guest issuing sub-4KiB transfers gives the Mapper nothing to
    track (Section 5.4's motivation for reporting 4KiB sectors)."""
    from tests.conftest import small_guest_config
    guest_cfg = small_guest_config(unaligned_io_fraction=1.0)
    vm = cluster.create_vm(small_vm_config(
        vswapper=VSwapperConfig.mapper_only(), guest=guest_cfg))
    from repro.sim.ops import FileRead
    vm.guest.fs.create_file("f", 64)
    vm.guest.execute(FileRead("f", 0, 64))
    assert vm.mapper.tracked_pages == 0


def test_refault_consistency_self_check_fires(cluster, host):
    """Corrupting a tracked page's content behind the Mapper's back is
    caught by the refault self-check (ConsistencyError)."""
    import pytest as _pytest
    from repro.errors import ConsistencyError
    from repro.mem.page import AnonContent
    vm = make_mapper_vm(cluster)
    hyp = host.hypervisor
    transfers = [Transfer(100 + i, 0x100 + i) for i in range(2048)]
    hyp.virtio_read(vm, transfers)
    discarded = next(g for g in (0x100 + i for i in range(2048))
                     if vm.mapper.is_discarded(g))
    # Sabotage: change the logical content without telling the Mapper.
    vm.set_content(discarded, AnonContent.fresh())
    with _pytest.raises(ConsistencyError):
        hyp.touch_page(vm, discarded)
