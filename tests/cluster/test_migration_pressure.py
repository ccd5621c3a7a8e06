"""Pressure-driven migration: thresholds, victim choice, teardown."""

import pytest

from repro.cluster import Cluster
from repro.config import ClusterConfig
from tests.cluster.conftest import fill_to_limit, small_node
from tests.conftest import small_vm_config


def two_node_cluster(*, budget: int = 100,
                     threshold: float = 0.05) -> Cluster:
    """node0 budgeted and thresholded; node1 idle and unbudgeted.

    ``reclaim_batch_pages=1`` makes every eviction take exactly one
    swap slot, so tests can position a node exactly at its threshold.
    """
    return Cluster(ClusterConfig(hosts=(
        small_node("node0", swap_budget_pages=budget,
                   pressure_threshold=threshold,
                   reclaim_batch_pages=1),
        small_node("node1", reclaim_batch_pages=1),
    )))


def pinned_vm(cluster, name="vm0", host_index=0):
    return cluster.create_vm(
        small_vm_config(name=name, resident_limit_mib=4),
        host=cluster.hosts[host_index])


def test_no_migration_one_slot_below_threshold():
    cluster = two_node_cluster()  # threshold at 5 of 100 slots
    vm = pinned_vm(cluster)
    fill_to_limit(vm, extra=4)
    assert cluster.hosts[0].swap_area.used_slots == 4
    assert not cluster.hosts[0].over_pressure
    assert cluster.pressure_tick() == []
    assert vm.host is cluster.hosts[0]


def test_migration_fires_exactly_at_threshold():
    cluster = two_node_cluster()
    vm = pinned_vm(cluster)
    fill_to_limit(vm, extra=5)  # 5/100 == the 0.05 threshold exactly
    src, dst = cluster.hosts
    assert src.swap_area.used_slots == 5
    assert src.over_pressure

    records = cluster.pressure_tick()

    assert len(records) == 1
    record = records[0]
    assert (record.vm_name, record.src, record.dst) == \
        ("vm0", "node0", "node1")
    assert record.src_pressure == pytest.approx(0.05)
    assert vm.host is dst
    assert cluster.migrations == records
    # Evacuation freed every source swap slot the VM held.
    assert src.swap_area.used_slots == 0
    assert not src.over_pressure
    assert vm.counters.extra.get("migrations") == 1


def test_migrated_vm_state_rebuilt_on_destination():
    cluster = two_node_cluster()
    vm = pinned_vm(cluster)
    fill_to_limit(vm, extra=5)
    resident_before = vm.resident_pages
    content_before = {gpa: vm.content_of(gpa)
                      for gpa in vm.ept.present_gpas()}
    cluster.pressure_tick()

    dst = cluster.hosts[1]
    assert vm in dst.vms
    assert vm in dst.hypervisor.vms
    assert vm.resident_pages == resident_before
    for gpa, content in content_before.items():
        assert vm.content_of(gpa) == content
    # The freeze shows up as a pending stall the driver will charge.
    assert vm.pending_stall > 0.0
    assert vm.take_pending_stall() == pytest.approx(
        cluster.migrations[0].downtime_seconds)
    assert vm.pending_stall == 0.0  # draining zeroes it


def test_no_migration_without_destination():
    cluster = Cluster(ClusterConfig(hosts=(
        small_node("node0", swap_budget_pages=100,
                   pressure_threshold=0.05, reclaim_batch_pages=1),
    )))
    vm = pinned_vm(cluster)
    fill_to_limit(vm, extra=8)
    assert cluster.hosts[0].over_pressure
    assert cluster.pressure_tick() == []
    assert vm.host is cluster.hosts[0]


def test_victim_is_largest_swap_footprint():
    cluster = two_node_cluster(budget=1000, threshold=0.01)
    small = pinned_vm(cluster, name="vm0")
    big = pinned_vm(cluster, name="vm1")
    fill_to_limit(small, extra=4)
    fill_to_limit(big, start_gpa=0x8000, extra=32)

    records = cluster.pressure_tick()
    assert records and records[0].vm_name == "vm1"


def test_io_pinned_vm_never_migrates():
    cluster = two_node_cluster()
    vm = pinned_vm(cluster)
    fill_to_limit(vm, extra=8)
    vm.io_pinned.add(0x100)  # in-flight DMA
    assert cluster.pressure_tick() == []
    vm.io_pinned.clear()
    assert len(cluster.pressure_tick()) == 1


def test_migration_emits_trace_and_audits_cleanly():
    from repro.context import RunContext, run_context
    with run_context(RunContext(paranoid=True)):
        cluster = two_node_cluster()
        assert cluster.auditor is not None
        vm = pinned_vm(cluster)
        fill_to_limit(vm, extra=5)
        records = cluster.pressure_tick()
        assert len(records) == 1
        assert cluster.auditor.audits > 0
