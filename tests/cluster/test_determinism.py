"""Acceptance property: cluster runs are bit-deterministic.

Same seed, same fleet => identical placements, migration log, and
per-VM counters -- rebuilt from scratch, and serial == parallel when
the cells run through the sweep executor.
"""

import dataclasses

from repro.cluster import Cluster
from repro.config import ClusterConfig, ClusterMigrationConfig
from repro.exec.executor import SerialExecutor, run_sweep
from repro.exec.supervisor import CellSupervisor
from repro.experiments.cluster import (
    GUEST_MIB,
    STAGGER_SECONDS,
    build_cluster_exp_sweep,
    fleet_config,
)
from repro.experiments.dynamic import run_fleet
from repro.experiments.runner import ConfigName, standard_configs
from repro.units import mib_pages
from tests.cluster.conftest import fill_to_limit, small_node
from tests.conftest import small_vm_config

NUM_VMS = 24
NUM_HOSTS = 4


def build_and_load_cluster(seed: int = 7):
    """A 4-host/24-VM cluster loaded until migrations happen.

    Tight nodes (one slot per eviction, low thresholds) so the manual
    pressure passes below migrate deterministically chosen VMs.
    """
    cluster = Cluster(ClusterConfig(
        hosts=tuple(
            small_node(f"node{i}", swap_budget_pages=2048,
                       pressure_threshold=0.05, reclaim_batch_pages=1)
            for i in range(NUM_HOSTS)),
        placement="balance",
        migration=ClusterMigrationConfig(enabled=False),
        seed=seed,
    ))
    vms = [cluster.create_vm(
        small_vm_config(name=f"vm{i}", resident_limit_mib=4))
        for i in range(NUM_VMS)]
    for i, vm in enumerate(vms):
        # Uneven overflow so hosts cross their thresholds unevenly.
        fill_to_limit(vm, extra=16 + (i % 5) * 24)
        cluster.pressure_tick()
    return cluster


def fingerprint(cluster) -> dict:
    return {
        "placements": list(cluster.placements),
        "migrations": [r.to_dict() for r in cluster.migrations],
        "counters": [vm.counters.snapshot() for vm in cluster.vms],
        "swap": [host.swap_area.used_slots for host in cluster.hosts],
    }


def test_24_vm_cluster_bit_deterministic():
    first = fingerprint(build_and_load_cluster())
    second = fingerprint(build_and_load_cluster())
    assert first == second
    assert first["migrations"], "scenario never migrated: inert test"


def test_different_seed_may_differ_but_placements_hold():
    """Placement is load-driven, not RNG-driven: seeds change eviction
    noise streams, never where the scheduler put a VM."""
    a = build_and_load_cluster(seed=7)
    b = build_and_load_cluster(seed=8)
    assert a.placements == b.placements


def test_cluster_cells_parallel_identical_to_serial():
    """The cluster experiment's cells agree bit-for-bit under
    ``--jobs 2``: each worker rebuilds its cluster from the spec."""
    sweep = build_cluster_exp_sweep(
        scale=32, config_names=(ConfigName.BASELINE,),
        policies=("first-fit",), fleet_sizes=(8,))
    serial = run_sweep(sweep, executor=SerialExecutor())
    parallel = run_sweep(sweep, executor=CellSupervisor(2))

    assert list(serial.results) == list(parallel.results)
    migrated = 0
    for cell_id, expected in serial.results.items():
        got = parallel.results[cell_id]
        assert got.counters == expected.counters, cell_id
        assert got.runtime == expected.runtime, cell_id
        assert got.phases == expected.phases, cell_id
        assert got.status == expected.status, cell_id
        migrated += expected.counters.get("migrations", 0)
    assert migrated > 0, "fleet cell never migrated: inert test"


def test_engine_driven_fleet_reruns_identically():
    """The full harness (engine clock, staggered drivers, periodic
    pressure controller) reproduces its own migration log and runtimes."""
    spec = standard_configs([ConfigName.BASELINE])[0]
    # Roomier budgets and an earlier threshold than the experiment's,
    # so this small fleet migrates.
    base = fleet_config(num_hosts=4, policy="first-fit", scale=32,
                        seed=1, migration=True)
    config = dataclasses.replace(base, hosts=tuple(
        dataclasses.replace(node, swap_budget_pages=mib_pages(2048 / 32),
                            pressure_threshold=0.3)
        for node in base.hosts))

    def run():
        cluster, drivers = run_fleet(
            config, spec, num_guests=8, scale=32,
            stagger_seconds=STAGGER_SECONDS, guest_mib=GUEST_MIB)
        return (cluster.placements,
                [r.to_dict() for r in cluster.migrations],
                [d.runtime for d in drivers if not d.crashed],
                sum(d.crashed for d in drivers))

    first, second = run(), run()
    assert first == second
    assert first[1], "fleet never migrated: inert test"
