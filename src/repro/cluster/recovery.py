"""Host-failure recovery: VM evacuation with retry/backoff, or loss.

When a host hard-crashes, its VMs' host-side state (frames, swap
slots, QEMU text) dies with it; only the logical guest state -- page
contents, EPT shape, Mapper associations (block-relative), the guest
kernel -- survives, captured at crash time as the *carried set*.  The
:class:`EvacuationController` then tries to re-home each victim:

1. Pick a destination through the cluster's own placement policy
   (``choose_host``); FAILED hosts never admit.
2. Rebuild the VM there (:func:`~repro.cluster.migrate.rebuild_vm_on_host`),
   charging restore traffic as migration-style downtime.
3. On failure -- no host admits, the destination's swap budget cannot
   absorb the rebuild, or the copy itself dies mid-transfer -- roll any
   partial destination state back and retry after a capped exponential
   backoff, until ``evac_max_retries`` attempts or the per-VM
   ``evac_deadline`` (virtual time since the crash) is exhausted.
4. A VM that cannot be re-homed becomes a typed :class:`VmLost` record
   -- an explicit figure hole, like ``CellFailure`` -- never a silent
   drop; the ``--paranoid`` evacuation-conservation invariant enforces
   exactly that.

While homeless a VM is frozen: its driver polls without consuming
workload operations, so the workload resumes exactly where the crash
interrupted it (or never, if the VM is lost).

Determinism: the controller draws no randomness of its own.  Crash
times and mid-copy failures are pure functions of the fault plan's
``host_fault_seed`` (see ``FaultPlan.host_crash_time``), placement is
a pure function of cluster state, and retry timing is fixed by config
-- so the same seed replays the same crash/evacuation/loss sequence,
and survivors on unaffected hosts stay bit-identical to an uninjected
run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.config import FaultConfig
from repro.errors import (
    ConfigError,
    DiskError,
    ExperimentError,
    HostError,
    PlacementError,
)
from repro.faults.plan import capped_backoff
from repro.host.vm import Vm

from repro.cluster.host import Host
from repro.cluster.migrate import (
    MigrationRecord,
    rebuild_vm_on_host,
    teardown_vm_on_host,
)
from repro.cluster.placement import choose_host

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import Cluster

#: Bumped whenever VmLost semantics change such that persisted records
#: stop being comparable.
VMLOST_SCHEMA_VERSION = 1

#: Rebuild failures an evacuation attempt survives by retrying: no host
#: admits, the destination cannot absorb the swap footprint, host-root
#: code space is exhausted, or the copy itself died mid-transfer.
EVACUATION_RETRYABLE = (PlacementError, HostError, DiskError, ConfigError)


@dataclass(frozen=True)
class VmLost:
    """A VM the cluster could not re-home after its host failed.

    The typed figure hole of host-fault injection: sweeps keep running
    and report these explicitly, exactly as ``CellFailure`` reports a
    quarantined cell.
    """

    time: float
    vm_name: str
    #: The host whose failure orphaned the VM.
    host: str
    #: Why recovery gave up (retries exhausted, deadline exceeded).
    reason: str
    #: Evacuation attempts made before giving up.
    attempts: int

    def to_dict(self) -> dict:
        return {
            "schema": VMLOST_SCHEMA_VERSION,
            "time": self.time, "vm": self.vm_name, "host": self.host,
            "reason": self.reason, "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "VmLost":
        """Inverse of :meth:`to_dict` (store round-trips)."""
        if data.get("schema") != VMLOST_SCHEMA_VERSION:
            raise ExperimentError(
                f"VmLost schema {data.get('schema')!r} != "
                f"{VMLOST_SCHEMA_VERSION}")
        return cls(time=data["time"], vm_name=data["vm"],
                   host=data["host"], reason=data["reason"],
                   attempts=data["attempts"])


@dataclass
class Evacuation:
    """In-flight recovery state of one orphaned VM."""

    vm: Vm
    #: Name of the failed host the VM came off.
    src: str
    #: Virtual time the host failed (the deadline's epoch).
    started: float
    #: Carried set captured at crash time (teardown empties the live
    #: structures, so it must be remembered here).
    carried: list[int]
    tracked: set[int] = field(default_factory=set)
    #: Restore traffic (mapper-aware), priced at crash time.
    transferred_bytes: float = 0.0
    #: Source swap pressure when the host died (for the record).
    src_pressure: float = 0.0
    attempts: int = 0


class EvacuationController:
    """Re-homes the VMs of failed hosts, one retry loop per VM.

    Owned by the :class:`~repro.cluster.cluster.Cluster`; attempt
    scheduling runs on the cluster engine, so evacuation interleaves
    deterministically with the surviving hosts' work.
    """

    def __init__(self, cluster: "Cluster",
                 faults: FaultConfig | None) -> None:
        self.cluster = cluster
        #: Retry/backoff/deadline knobs are the ``evac_*`` fields of the
        #: cluster's fault config, or their defaults without one.
        self.cfg = faults or FaultConfig()
        #: vm_id -> in-flight evacuation (the auditor's "limbo" roster).
        self.active: dict[int, Evacuation] = {}
        #: Retries performed across all evacuations (figure counter).
        self.retries = 0
        #: vm name -> virtual seconds from host failure to re-home.
        self.latencies: dict[str, float] = {}

    def begin(self, vm: Vm, src: str, *, carried: list[int],
              tracked: set[int], transferred_bytes: float,
              src_pressure: float) -> None:
        """Register an orphaned VM and schedule its first attempt."""
        cluster = self.cluster
        evac = Evacuation(
            vm=vm, src=src, started=cluster.now, carried=carried,
            tracked=tracked, transferred_bytes=transferred_bytes,
            src_pressure=src_pressure)
        self.active[vm.vm_id] = evac
        if cluster.trace.enabled:
            cluster.trace.emit("evac.start", vm=vm.name, src=src,
                               pages=len(carried))
        cluster.engine.schedule(0.0, lambda: self._attempt(evac))

    # ------------------------------------------------------------------

    def _attempt(self, evac: Evacuation) -> None:
        vm = evac.vm
        cluster = self.cluster
        if vm.lost or vm.host is not None:
            return  # stale event: already resolved
        now = cluster.now
        if now - evac.started > self.cfg.evac_deadline:
            self._lose(evac, f"deadline exceeded after {evac.attempts} "
                             f"attempt(s) ({self.cfg.evac_deadline:.1f}s)")
            return
        evac.attempts += 1
        fail_point = None
        if cluster.faults is not None:
            fail_point = cluster.faults.migration_fail_point(
                f"evac:{vm.name}", evac.attempts)
        dst: Host | None = None
        try:
            if fail_point == "rollback":
                raise HostError(
                    f"evacuation copy of {vm.name} died mid-transfer")
            dst = choose_host(cluster.cfg.placement, cluster.hosts,
                              vm.cfg)
            cluster._region_seq += 1
            rebuild_vm_on_host(
                vm, dst, carried=evac.carried, tracked=evac.tracked,
                region_name=f"image-{vm.name}@e{cluster._region_seq}")
        except EVACUATION_RETRYABLE as error:
            # Roll partial destination state back: rollback-or-complete
            # holds for evacuations too.
            if vm.host is not None:
                teardown_vm_on_host(vm, vm.host)
                vm.host = None
            self._retry(evac, error)
            return
        self._succeed(evac, dst)

    def _retry(self, evac: Evacuation, error: Exception) -> None:
        vm = evac.vm
        cluster = self.cluster
        if evac.attempts > self.cfg.evac_max_retries:
            self._lose(evac, f"retries exhausted after {evac.attempts} "
                             f"attempt(s): {type(error).__name__}: {error}")
            return
        delay = capped_backoff(evac.attempts, self.cfg.evac_backoff_base,
                               self.cfg.evac_backoff_factor,
                               self.cfg.evac_backoff_cap)
        self.retries += 1
        if cluster.trace.enabled:
            cluster.trace.emit(
                "evac.retry", vm=vm.name, attempt=evac.attempts,
                backoff=delay, error=type(error).__name__)
        cluster.engine.schedule(delay, lambda: self._attempt(evac))

    def _succeed(self, evac: Evacuation, dst: Host) -> None:
        vm = evac.vm
        cluster = self.cluster
        bandwidth = cluster.cfg.migration.bandwidth_bytes_per_sec
        downtime = (evac.transferred_bytes / bandwidth
                    if bandwidth > 0 else 0.0)
        vm.pending_stall += downtime
        vm.counters.bump("evacuations")
        record = MigrationRecord(
            time=cluster.now, vm_name=vm.name, src=evac.src,
            dst=dst.name, carried_pages=len(evac.carried),
            transferred_bytes=evac.transferred_bytes,
            downtime_seconds=downtime, src_pressure=evac.src_pressure,
            kind="evacuation", attempt=evac.attempts,
            outcome="completed")
        cluster.migrations.append(record)
        self.latencies[vm.name] = cluster.now - evac.started
        del self.active[vm.vm_id]
        if cluster.trace.enabled:
            cluster.trace.emit(
                "evac.done", vm=vm.name, src=evac.src, dst=dst.name,
                attempt=evac.attempts, downtime=downtime)
        if cluster.auditor is not None:
            cluster.auditor.check(f"evac-done:{vm.name}")

    def _lose(self, evac: Evacuation, reason: str) -> None:
        vm = evac.vm
        cluster = self.cluster
        vm.lost = True
        record = VmLost(
            time=cluster.now, vm_name=vm.name, host=evac.src,
            reason=reason, attempts=evac.attempts)
        cluster.lost.append(record)
        del self.active[vm.vm_id]
        if cluster.trace.enabled:
            cluster.trace.emit("evac.lost", vm=vm.name, src=evac.src,
                               reason=reason, attempts=evac.attempts)
        if cluster.auditor is not None:
            cluster.auditor.check(f"evac-lost:{vm.name}")
