"""Single-host assembly and lifecycle: a one-host cluster."""

import pytest

from repro.cluster import Cluster
from repro.cluster.host import Host, build_latency_model
from repro.config import ClusterConfig, DiskConfig
from repro.disk.latency import HddLatencyModel, SsdLatencyModel
from repro.errors import ConfigError
from tests.conftest import small_cluster_config, small_vm_config


def test_default_machine_builds():
    cluster = Cluster(ClusterConfig())
    host = cluster.hosts[0]
    assert cluster.now == 0.0
    assert host.frames.free > 0


def test_create_vm_wires_guest_and_hypervisor(cluster, host):
    vm = cluster.create_vm(small_vm_config())
    assert vm.guest is not None
    assert vm in host.hypervisor.vms
    assert vm.image.size_blocks > 0


def test_vm_ids_and_regions_distinct(cluster):
    a = cluster.create_vm(small_vm_config(name="a"))
    b = cluster.create_vm(small_vm_config(name="b"))
    assert a.vm_id != b.vm_id
    assert a.image.region.base_sector != b.image.region.base_sector
    assert a.qemu.base_page != b.qemu.base_page


def test_latency_model_selection():
    assert isinstance(build_latency_model(DiskConfig()), HddLatencyModel)
    assert isinstance(
        build_latency_model(DiskConfig(kind="ssd")), SsdLatencyModel)
    with pytest.raises(ConfigError):
        build_latency_model(DiskConfig(kind="tape"))


def test_static_balloon_applied_at_creation(cluster, host):
    vm = cluster.create_vm(small_vm_config())
    host.apply_static_balloon(vm, 256)
    assert vm.guest.balloon_size == 256
    assert vm.costs.total() == 0.0


def test_boot_guest_resets_measurement_state(cluster, host):
    vm = cluster.create_vm(small_vm_config(resident_limit_mib=4))
    host.boot_guest(vm)
    assert vm.counters.snapshot()["host_evictions"] == 0
    assert vm.costs.total() == 0.0
    assert host.disk.stats.requests == 0
    # ...but the physical state (stragglers in swap) persists.
    assert len(vm.swap_slots) > 0
    assert len(vm.guest.free_list) > 0


def test_boot_guest_fraction(cluster, host):
    vm_full = cluster.create_vm(small_vm_config(name="f"))
    vm_half = cluster.create_vm(small_vm_config(name="h"))
    host.boot_guest(vm_full, fraction=1.0)
    host.boot_guest(vm_half, fraction=0.3)
    assert len(vm_half.content) < len(vm_full.content)


def test_aggregate_counters(cluster):
    a = cluster.create_vm(small_vm_config(name="a"))
    b = cluster.create_vm(small_vm_config(name="b"))
    a.counters.disk_ops = 3
    b.counters.disk_ops = 4
    assert cluster.aggregate_counters()["disk_ops"] == 7


def test_run_until(cluster):
    cluster.engine.schedule(5.0, lambda: None)
    cluster.run(until=2.0)
    assert cluster.now == 2.0


def test_host_root_region_bounds_vm_count():
    config = small_cluster_config(
        hypervisor_code_pages=Host.HOST_ROOT_PAGES // 2 + 1)
    cluster = Cluster(config)
    host = cluster.hosts[0]
    cluster.create_vm(small_vm_config(name="first"), host=host)
    # An explicit host skips placement's admission filter, so the host
    # itself refuses the second QEMU image.
    with pytest.raises(ConfigError):
        cluster.create_vm(small_vm_config(name="second"), host=host)


def test_boot_guest_is_repeatable(cluster, host):
    vm = cluster.create_vm(small_vm_config(resident_limit_mib=4))
    host.boot_guest(vm)
    swapped_first = len(vm.swap_slots)
    host.boot_guest(vm)  # second uptime epoch
    assert len(vm.swap_slots) >= swapped_first // 2
    assert vm.costs.total() == 0.0
