"""Host-failure recovery: crash, evacuation, typed loss, determinism.

The tentpole invariants under test: a crashed host's VMs are either
re-homed through the placement policy (with capped-exponential-backoff
retries) or become typed ``VmLost`` records -- never silent drops; a
mid-copy failure rolls back or completes, never both; the fault
schedule is a pure function of ``host_fault_seed``; and survivors on
untouched hosts stay bit-identical to an uninjected run.
"""

import pytest

from repro.cluster import Cluster, choose_host, migrate_vm
from repro.cluster.host import HostState
from repro.cluster.recovery import EvacuationPolicy
from repro.config import (
    ClusterConfig,
    ClusterMigrationConfig,
    FaultConfig,
    VSwapperConfig,
)
from repro.context import RunContext, run_context
from repro.errors import PlacementError
from tests.cluster.conftest import fill_to_limit, small_node
from tests.conftest import small_vm_config


def four_nodes(**kwargs):
    return tuple(small_node(f"node{i}", **kwargs) for i in range(4))


def build_cluster(nodes, *, placement="first-fit", faults=None, seed=7):
    return Cluster(ClusterConfig(
        hosts=nodes, placement=placement,
        migration=ClusterMigrationConfig(enabled=False),
        seed=seed, faults=faults))


def touch_over_time(cluster, vm, total, *, stride=0.05):
    """An engine process touching one page per ``stride`` seconds.

    Freezes (without consuming touches) while the VM is homeless, and
    ends early if the VM is lost -- the driver contract in miniature.
    """
    state = {"i": 0}

    def step():
        if vm.lost or state["i"] >= total:
            return None
        if vm.host is None:
            return 0.1
        vm.host.hypervisor.touch_page(vm, 0x100 + state["i"], write=True)
        state["i"] += 1
        return stride

    cluster.engine.add_process(step)


# ----------------------------------------------------------------------
# host lifecycle
# ----------------------------------------------------------------------

def test_failed_host_rejects_admission_and_placement_skips_it():
    cluster = build_cluster(four_nodes(overcommit_ratio=0.125))
    cluster.hosts[0].fail()
    assert not cluster.hosts[0].can_admit(small_vm_config())
    target = choose_host("first-fit", cluster.hosts, small_vm_config())
    assert target.name == "node1"
    vm = cluster.create_vm(small_vm_config())
    assert vm.host.name == "node1"


def test_placement_error_when_every_host_failed():
    cluster = build_cluster(four_nodes())
    for host in cluster.hosts:
        host.fail()
    with pytest.raises(PlacementError):
        cluster.create_vm(small_vm_config())


def test_degrade_scales_disk_latency_and_recover_resets_it():
    cluster = build_cluster(four_nodes())
    host = cluster.hosts[0]
    cluster._degrade_host(host, 8.0)
    assert host.state is HostState.DEGRADED
    assert host.ever_degraded
    assert host.disk.latency_scale == 8.0
    assert host.can_admit(small_vm_config())  # degraded still admits
    cluster._recover_host(host)
    assert host.state is HostState.UP
    assert host.disk.latency_scale == 1.0


def test_crash_inside_a_degrade_window_wins():
    cluster = build_cluster(four_nodes())
    host = cluster.hosts[0]
    cluster._degrade_host(host, 8.0)
    cluster._fail_host(host)
    assert host.state is HostState.FAILED
    assert host.disk.latency_scale == 1.0
    # The window's scheduled end must not resurrect the host.
    cluster._recover_host(host)
    assert host.state is HostState.FAILED
    # Nor may a second crash or a late degradation touch it.
    cluster._fail_host(host)
    cluster._degrade_host(host, 2.0)
    assert host.state is HostState.FAILED


# ----------------------------------------------------------------------
# evacuation
# ----------------------------------------------------------------------

def test_crash_evacuates_vms_to_a_surviving_host():
    cluster = build_cluster(four_nodes(overcommit_ratio=0.125))
    vms = [cluster.create_vm(small_vm_config(name=f"vm{i}",
                                             resident_limit_mib=4))
           for i in range(2)]
    for vm in vms:
        fill_to_limit(vm, extra=64)  # resident memory plus swap
    before = [(sorted(vm.ept.present_gpas()), sorted(vm.swap_slots))
              for vm in vms]

    cluster._fail_host(cluster.hosts[0])
    cluster.engine.run()

    assert not cluster.evac.active
    assert not cluster.lost
    for vm, (present, swapped) in zip(vms, before):
        assert vm.host is not None and vm.host.name == "node1"
        assert vm.counters.snapshot()["evacuations"] == 1
        # The carried set re-materialized: every page that was present
        # or swapped on the dead host lives on the destination -- EPT
        # present, or re-evicted to its swap by the rebuild's own
        # reclaim pressure.
        after = set(vm.ept.present_gpas()) | set(vm.swap_slots)
        assert set(present) | set(swapped) <= after
        assert vm.pending_stall > 0  # restore traffic charged as freeze
    kinds = [(r.kind, r.outcome) for r in cluster.migrations]
    assert kinds == [("evacuation", "completed")] * 2
    assert set(cluster.evac.latencies) == {"vm0", "vm1"}


def test_no_capacity_becomes_a_typed_vm_lost():
    cluster = build_cluster((small_node(),))  # nowhere to evacuate to
    vm = cluster.create_vm(small_vm_config(resident_limit_mib=4))
    fill_to_limit(vm, extra=32)
    cluster._fail_host(cluster.hosts[0])
    cluster.engine.run()

    assert vm.lost
    assert vm.host is None
    assert not cluster.evac.active
    [hole] = cluster.lost
    assert hole.vm_name == "vm0"
    assert hole.host == "node0"
    assert "retries exhausted" in hole.reason
    # Satellite: the loss reason carries the per-candidate placement
    # diagnostics (the PlacementError message is embedded verbatim).
    assert "state=failed" in hole.reason
    # First attempt plus evac_max_retries retries.
    assert hole.attempts == EvacuationPolicy().max_retries + 1


def test_evac_deadline_loses_the_vm():
    faults = FaultConfig(enabled=True, evac_deadline=1.0,
                         evac_max_retries=1000)
    cluster = build_cluster((small_node(),), faults=faults)
    vm = cluster.create_vm(small_vm_config())
    cluster._fail_host(cluster.hosts[0])
    cluster.engine.run()

    assert vm.lost
    [hole] = cluster.lost
    assert "deadline exceeded" in hole.reason
    assert hole.time <= cluster.now


def test_backoff_is_capped_exponential():
    policy = EvacuationPolicy(backoff_base=0.5, backoff_factor=2.0,
                              backoff_cap=8.0)
    assert [policy.backoff(n) for n in range(1, 7)] == \
        [0.5, 1.0, 2.0, 4.0, 8.0, 8.0]


def test_retry_succeeds_once_capacity_frees_up():
    """An evacuation that finds no host keeps retrying; freeing the
    blocker between attempts re-homes the VM (latency > 0)."""
    nodes = (small_node("node0", overcommit_ratio=0.0625),  # one VM each
             small_node("node1", overcommit_ratio=0.0625))
    cluster = build_cluster(nodes)
    victim = cluster.create_vm(small_vm_config(name="victim"))
    blocker = cluster.create_vm(small_vm_config(name="blocker"))
    assert (victim.host.name, blocker.host.name) == ("node0", "node1")

    cluster._fail_host(cluster.hosts[0])
    # Free node1 after the first attempt has already failed.
    cluster.engine.schedule(0.2,
                            lambda: cluster.hosts[1].release_vm(blocker))
    cluster.engine.run()

    assert not victim.lost
    assert victim.host.name == "node1"
    assert cluster.evac.retries >= 1
    assert cluster.evac.latencies["victim"] > 0
    [record] = cluster.migrations
    assert record.kind == "evacuation"
    assert record.attempt >= 2


# ----------------------------------------------------------------------
# mid-copy failure: rollback or complete, never both
# ----------------------------------------------------------------------

def test_mid_copy_rollback_leaves_the_source_untouched():
    cluster = build_cluster(four_nodes())
    vm = cluster.create_vm(small_vm_config(resident_limit_mib=4))
    fill_to_limit(vm, extra=32)
    src, dst = cluster.hosts[0], cluster.hosts[1]
    present = sorted(vm.ept.present_gpas())
    swapped = sorted(vm.swap_slots)

    record = migrate_vm(
        vm, src, dst, bandwidth_bytes_per_sec=1.25e9,
        region_name="image-vm0@m1", fail_point="rollback")

    assert record.outcome == "rolled-back"
    assert record.carried_pages == 0
    assert record.downtime_seconds == 0.0
    assert record.transferred_bytes > 0  # wasted wire traffic accounted
    assert vm.host is src
    assert sorted(vm.ept.present_gpas()) == present
    assert sorted(vm.swap_slots) == swapped
    assert dst.committed_guest_pages == 0
    assert dst.frames.used == 0


def test_mid_copy_complete_finishes_the_move():
    cluster = build_cluster(four_nodes())
    vm = cluster.create_vm(small_vm_config(resident_limit_mib=4))
    fill_to_limit(vm, extra=32)
    src, dst = cluster.hosts[0], cluster.hosts[1]

    record = migrate_vm(
        vm, src, dst, bandwidth_bytes_per_sec=1.25e9,
        region_name="image-vm0@m1", fail_point="complete")

    assert record.outcome == "completed"
    assert vm.host is dst
    assert src.committed_guest_pages == 0
    assert src.frames.used == 0


# ----------------------------------------------------------------------
# determinism and survivor bit-identity
# ----------------------------------------------------------------------

def crashy_faults(**overrides):
    defaults = dict(enabled=True, host_crash_rate=0.45,
                    host_fault_horizon=20.0, host_fault_seed=7)
    defaults.update(overrides)
    return FaultConfig(**defaults)


def run_seeded_fleet(faults):
    cluster = build_cluster(four_nodes(overcommit_ratio=0.125),
                            placement="balance", faults=faults)
    vms = [cluster.create_vm(small_vm_config(name=f"vm{i}",
                                             resident_limit_mib=4))
           for i in range(4)]
    for vm in vms:
        touch_over_time(cluster, vm, 2048)
    cluster.engine.run()
    cluster.engine.stop()
    return cluster, vms


def fleet_fingerprint(cluster, vms):
    return {
        "placements": list(cluster.placements),
        "migrations": [r.to_dict() for r in cluster.migrations],
        "lost": [hole.to_dict() for hole in cluster.lost],
        "states": {h.name: h.state.value for h in cluster.hosts},
        "counters": [vm.counters.snapshot() for vm in vms],
    }


def test_same_seed_replays_the_same_crash_and_recovery_sequence():
    first = fleet_fingerprint(*run_seeded_fleet(crashy_faults()))
    second = fleet_fingerprint(*run_seeded_fleet(crashy_faults()))
    assert first == second
    assert first["migrations"] or first["lost"], \
        "schedule never crashed a loaded host: inert test"


def test_host_fault_seed_changes_the_schedule():
    a = fleet_fingerprint(*run_seeded_fleet(crashy_faults()))
    b = fleet_fingerprint(
        *run_seeded_fleet(crashy_faults(host_fault_seed=104)))
    assert a["states"] != b["states"]


def test_survivors_on_untouched_hosts_are_bit_identical():
    """Hosts the schedule leaves alone (and that never served as an
    evacuation destination) run exactly as in an uninjected cluster."""
    clean_cluster, clean_vms = run_seeded_fleet(None)
    faulty_cluster, faulty_vms = run_seeded_fleet(
        crashy_faults(host_fault_seed=22))  # kills exactly node0

    assert clean_cluster.placements == faulty_cluster.placements
    touched = {r.src for r in faulty_cluster.migrations}
    touched |= {r.dst for r in faulty_cluster.migrations}
    touched |= {hole.host for hole in faulty_cluster.lost}
    assert "node0" in touched
    untouched_vms = [
        (clean, faulty)
        for clean, faulty in zip(clean_vms, faulty_vms)
        if faulty.host is not None and faulty.host.name not in touched]
    assert untouched_vms, "every host was touched: inert test"
    for clean, faulty in untouched_vms:
        assert clean.counters.snapshot() == faulty.counters.snapshot()
        assert sorted(clean.swap_slots) == sorted(faulty.swap_slots)


# ----------------------------------------------------------------------
# paranoid invariants through a crash
# ----------------------------------------------------------------------

def test_paranoid_invariants_hold_through_crash_and_evacuation():
    with run_context(RunContext(paranoid=True)):
        cluster = build_cluster(four_nodes(overcommit_ratio=0.125))
        vms = [cluster.create_vm(small_vm_config(
            name=f"vm{i}", vswapper=VSwapperConfig.full(),
            resident_limit_mib=4)) for i in range(2)]
        for vm in vms:
            fill_to_limit(vm, extra=64)
        cluster._fail_host(cluster.hosts[0])
        cluster.engine.run()

    assert cluster.auditor is not None
    assert cluster.auditor.audits > 0
    assert all(vm.host is not None for vm in vms)


def test_paranoid_catches_a_silent_vm_drop():
    """The conservation invariant: a VM that is neither placed nor
    evacuating nor recorded lost must blow up the auditor."""
    from repro.errors import InvariantViolation

    with run_context(RunContext(paranoid=True)):
        cluster = build_cluster(four_nodes())
        vm = cluster.create_vm(small_vm_config())
        vm.host.release_vm(vm)  # drop it on the floor, bypassing recovery
        vm.host = None
        with pytest.raises(InvariantViolation):
            cluster.auditor.check("test")
