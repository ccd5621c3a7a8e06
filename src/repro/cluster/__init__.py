"""Multi-host topology: hosts, placement, budgets, migration, recovery.

The package holds the only host assembly in the simulator:

* :class:`~repro.cluster.host.Host` -- the per-host assembly (disk,
  frames, hypervisor, VMs) *without* an engine clock of its own, plus
  a lifecycle (``UP -> DEGRADED -> FAILED``) host-fault injection
  drives.
* :class:`~repro.cluster.cluster.Cluster` -- N hosts wired to one
  shared engine and one seeded RNG, with a placement scheduler,
  per-node overcommit/swap budgets, pressure-driven migration, and
  host-failure recovery (``repro.cluster.recovery``).

A single-host run is a cluster of one: ``Cluster(ClusterConfig(...))``
(the default ``hosts`` is one unbudgeted node), with the host's parts at
``cluster.hosts[0]`` (or ``vm.host``).
"""

from repro.cluster.cluster import Cluster
from repro.cluster.host import Host, HostState, build_latency_model
from repro.cluster.migrate import (
    MIGRATION_SCHEMA_VERSION,
    MigrationRecord,
    carried_state,
    migrate_vm,
    rebuild_vm_on_host,
    teardown_vm_on_host,
)
from repro.cluster.placement import choose_host
from repro.cluster.recovery import (
    EvacuationController,
    VmLost,
)

__all__ = [
    "Cluster",
    "EvacuationController",
    "Host",
    "HostState",
    "MIGRATION_SCHEMA_VERSION",
    "MigrationRecord",
    "VmLost",
    "build_latency_model",
    "carried_state",
    "choose_host",
    "migrate_vm",
    "rebuild_vm_on_host",
    "teardown_vm_on_host",
]
