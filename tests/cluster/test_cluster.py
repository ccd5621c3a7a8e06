"""Cluster assembly: placement policies, admission, and the one-host
cluster."""

import pytest

from repro.cluster import Cluster, choose_host
from repro.config import ClusterConfig
from repro.errors import ConfigError, HostError, PlacementError
from tests.cluster.conftest import fill_to_limit, small_node
from tests.conftest import (
    small_cluster_config,
    small_vm_config,
)


def four_nodes(**kwargs):
    return tuple(small_node(f"node{i}", **kwargs) for i in range(4))


# ----------------------------------------------------------------------
# placement policies
# ----------------------------------------------------------------------

def test_first_fit_fills_lowest_host_first():
    cluster = Cluster(ClusterConfig(
        hosts=four_nodes(overcommit_ratio=0.125),  # 32 MiB: two guests
        placement="first-fit"))
    for i in range(5):
        cluster.create_vm(small_vm_config(name=f"vm{i}"))
    assert cluster.placements == [
        ("vm0", "node0"), ("vm1", "node0"),
        ("vm2", "node1"), ("vm3", "node1"),
        ("vm4", "node2"),
    ]


def test_balance_spreads_across_hosts():
    cluster = Cluster(ClusterConfig(
        hosts=four_nodes(), placement="balance"))
    for i in range(6):
        cluster.create_vm(small_vm_config(name=f"vm{i}"))
    hosts = [host for _, host in cluster.placements]
    assert hosts == ["node0", "node1", "node2", "node3",
                     "node0", "node1"]


def test_pack_concentrates_until_full():
    cluster = Cluster(ClusterConfig(
        hosts=four_nodes(overcommit_ratio=0.125),
        placement="pack"))
    for i in range(3):
        cluster.create_vm(small_vm_config(name=f"vm{i}"))
    assert [h for _, h in cluster.placements] == \
        ["node0", "node0", "node1"]


def test_placement_error_when_nothing_admits():
    cluster = Cluster(ClusterConfig(
        hosts=(small_node(overcommit_ratio=0.05),)))  # 12.8 MiB < guest
    with pytest.raises(PlacementError):
        cluster.create_vm(small_vm_config())


def test_placement_error_names_every_candidate_with_occupancy():
    """The rejection message carries per-host state/occupancy/pressure
    so an operator sees *why* each node refused."""
    cluster = Cluster(ClusterConfig(
        hosts=four_nodes(overcommit_ratio=0.0625)))  # 16 MiB: one guest
    for i in range(4):
        cluster.create_vm(small_vm_config(name=f"vm{i}"))
    cluster.hosts[3].fail()
    with pytest.raises(PlacementError) as excinfo:
        cluster.create_vm(small_vm_config(name="vm4"))
    message = str(excinfo.value)
    for name in ("node0", "node1", "node2", "node3"):
        assert name in message
    assert "state=up" in message
    assert "state=failed" in message
    assert "committed=4096/4096 (100%)" in message
    assert "swap_pressure=" in message


def test_unknown_policy_rejected():
    with pytest.raises(ConfigError):
        Cluster(ClusterConfig(hosts=(small_node(),),
                              placement="round-robin"))


def test_choose_host_skips_full_hosts():
    cluster = Cluster(ClusterConfig(
        hosts=four_nodes(overcommit_ratio=0.0625)))  # 16 MiB: one guest
    cluster.create_vm(small_vm_config(name="vm0"))
    target = choose_host("first-fit", cluster.hosts, small_vm_config())
    assert target.name == "node1"


# ----------------------------------------------------------------------
# admission accounting
# ----------------------------------------------------------------------

def test_committed_pages_follow_vm_lifecycle():
    cluster = Cluster(ClusterConfig(hosts=four_nodes()))
    vm = cluster.create_vm(small_vm_config())
    src = vm.host
    believed = vm.cfg.guest.memory_pages
    assert src.committed_guest_pages == believed
    src.release_vm(vm)
    assert src.committed_guest_pages == 0
    assert vm not in src.vms
    assert vm not in src.hypervisor.vms


def test_unlimited_ratio_admits_past_physical_memory():
    # None = the default one-host cluster's setting: admission never
    # blocks.
    node = small_node(total_memory_pages=8192)  # 32 MiB physical
    cluster = Cluster(ClusterConfig(hosts=(node,)))
    for i in range(4):  # 64 MiB believed on 32 MiB physical
        cluster.create_vm(small_vm_config(name=f"vm{i}"))
    assert len(cluster.hosts[0].vms) == 4


# ----------------------------------------------------------------------
# the one-host cluster every single-host run builds
# ----------------------------------------------------------------------

def test_machine_config_builds_a_cluster_of_one():
    cluster = Cluster(small_cluster_config())
    (host,) = cluster.hosts
    # The one host draws from the root RNG itself: no per-host fork.
    assert host.rng is cluster.rng
    assert host.engine is cluster.engine
    assert host.swap_area.budget_slots is None
    # No migration controller: nothing is queued before a VM exists.
    assert cluster.engine.pending_events() == 0


def test_policy_placement_bit_identical_to_explicit_host():
    """Placing through the policy and naming the one host explicitly
    build the same VM and drive the same eviction choices."""
    config = small_cluster_config()
    placed = Cluster(config)
    pinned = Cluster(config)

    vm_a = placed.create_vm(small_vm_config(resident_limit_mib=4))
    vm_b = pinned.create_vm(small_vm_config(resident_limit_mib=4),
                            host=pinned.hosts[0])
    fill_to_limit(vm_a, extra=256)
    fill_to_limit(vm_b, extra=256)

    assert placed.placements == pinned.placements == [("vm0", "host0")]
    assert vm_a.counters.snapshot() == vm_b.counters.snapshot()
    assert sorted(vm_a.swap_slots) == sorted(vm_b.swap_slots)
    assert placed.hosts[0].swap_area.used_slots == \
        pinned.hosts[0].swap_area.used_slots


def test_one_host_code_capacity_is_a_placement_error():
    """Placement filters on host-root code capacity: a one-host cluster
    out of room raises PlacementError, which a cell reports as a crash
    (it is a HostError), rather than the host's own ConfigError."""
    cluster = Cluster(small_cluster_config(
        hypervisor_code_pages=32768))
    cluster.create_vm(small_vm_config(name="vm0"))
    cluster.create_vm(small_vm_config(name="vm1"))
    with pytest.raises(PlacementError, match="no host admits VM 'vm2'"):
        cluster.create_vm(small_vm_config(name="vm2"))
    assert issubclass(PlacementError, HostError)


def test_vm_host_backref_set_on_placement():
    cluster = Cluster(ClusterConfig(hosts=four_nodes()))
    vm = cluster.create_vm(small_vm_config())
    assert vm.host is cluster.hosts[0]
    assert vm in cluster.vms
