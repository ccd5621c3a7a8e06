"""Per-VM host state."""

from repro.mem.page import ZERO, AnonContent
from tests.conftest import small_vm_config
from tests.host.scan_oracle import dma_pinned, referenced
from repro.config import VSwapperConfig


def test_content_defaults_to_zero(vm):
    assert vm.content_of(0x123) is ZERO


def test_set_content_roundtrip(vm):
    content = AnonContent.fresh()
    vm.set_content(1, content)
    assert vm.content_of(1) == content


def test_set_content_zero_prunes_entry(vm):
    vm.set_content(1, AnonContent.fresh())
    vm.set_content(1, ZERO)
    assert 1 not in vm.content
    assert vm.content_of(1) is ZERO


def test_resident_counts_code_and_swap_cache(host, vm):
    base = vm.resident_pages
    host.hypervisor.touch_page(vm, 0x10)
    assert vm.resident_pages == base + 1
    vm.qemu.mark_resident(0)
    assert vm.resident_pages == base + 2
    vm.swap_cache[0x99] = 5
    assert vm.resident_pages == base + 3


def test_mapper_preventer_shortcuts(cluster):
    baseline = cluster.create_vm(small_vm_config(name="b"))
    assert baseline.mapper is None
    assert baseline.preventer is None
    full = cluster.create_vm(small_vm_config(
        name="f", vswapper=VSwapperConfig.full()))
    assert full.mapper is not None
    assert full.preventer is not None


def test_referenced_dispatches_to_code_pages(vm):
    vm.qemu.accessed.add(3)
    key = ("code", 3)
    assert referenced(vm, key)
    assert not referenced(vm, key)
    # The host scan gives an accessed code page its second chance.
    vm.qemu.accessed.add(3)
    vm.scanner.note_resident(key, named=True)
    result = vm.scanner.pick_victims(1)
    assert result.victims == [key]
    assert result.examined == 2
    assert 3 not in vm.qemu.accessed


def test_referenced_for_absent_gpa_is_false(vm):
    assert not referenced(vm, 0x777)
    vm.scanner.note_resident(0x777, named=False)
    result = vm.scanner.pick_victims(1)
    assert result.victims == [0x777]
    assert result.examined == 1


def test_dma_pin_blocks_eviction(vm):
    vm.io_pinned.add(0x10)
    assert dma_pinned(vm, 0x10)
    assert not dma_pinned(vm, ("code", 1))
    for gpa in (0x10, 0x11):
        vm.scanner.note_resident(gpa, named=True)
    # Neither the clock pass nor escalation takes the pinned page.
    result = vm.scanner.pick_victims(2)
    assert result.victims == [0x11]


def test_refresh_gauges_tracks_mapper(cluster):
    vm = cluster.create_vm(small_vm_config(
        vswapper=VSwapperConfig.mapper_only()))
    vm.mapper.track(1, 100)
    vm.refresh_gauges()
    assert vm.counters.mapper_tracked_pages == 1
    assert vm.counters.mapper_tracked_peak == 1
    vm.mapper.drop_gpa(1)
    vm.refresh_gauges()
    assert vm.counters.mapper_tracked_pages == 0
    assert vm.counters.mapper_tracked_peak == 1


def test_hypervisor_satisfies_host_services(host):
    from repro.host.interface import HostServices
    assert isinstance(host.hypervisor, HostServices)
