"""The cluster: N hosts, one engine clock, one seeded RNG.

Determinism is the design constraint everything here serves.  All
hosts share a single :class:`~repro.sim.engine.Engine`, so cross-host
event ordering is total and reproducible; every random stream is a
labelled fork of one root :class:`~repro.sim.rng.DeterministicRng`
(forks are pure functions of ``(seed, label)``, independent of fork
order); and placement, victim selection, and destination choice are
pure functions of cluster state with host-id/vm-id tie-breaks.  Same
seed, same fleet => bit-identical placements, migration log, and
per-VM counters, serial or parallel.

A cluster of exactly one host -- what every single-host experiment
builds, e.g. ``ClusterConfig(seed=...)`` -- hands the *root* RNG to
that host: its fork labels are then the bare ``"hypervisor"``,
``"reclaim-<vm>"`` and ``"guest-<vm>"``, which every single-host
figure and cache key was recorded with.  Multi-host
clusters fork per host (``"host-<name>"``) so each node gets an
independent stream.
"""

from __future__ import annotations

from repro.audit import ClusterInvariantAuditor
from repro.config import ClusterConfig, VmConfig
from repro.context import current_context
from repro.core.migration import MigrationPlanner
from repro.faults.plan import FaultPlan
from repro.host.vm import Vm
from repro.sim.engine import Engine
from repro.sim.rng import DeterministicRng
from repro.trace.collector import (
    HostTaggedTrace,
    NULL_TRACE,
    TraceCollector,
)

from repro.cluster.host import Host, HostState
from repro.cluster.migrate import (
    MigrationRecord,
    carried_state,
    migrate_vm,
    teardown_vm_on_host,
)
from repro.cluster.placement import choose_host
from repro.cluster.recovery import (
    EvacuationController,
    EvacuationPolicy,
    VmLost,
)


class Cluster:
    """N simulated hosts wired to one shared engine."""

    def __init__(self, config: ClusterConfig) -> None:
        config.validate()
        self.cfg = config
        ctx = current_context()
        # The config's explicit FaultConfig wins; otherwise the run
        # context's plan (the CLI's --faults flag) applies.
        fault_cfg = (config.faults if config.faults is not None
                     else ctx.faults)
        if fault_cfg is not None:
            fault_cfg.validate()
        self.engine = Engine(
            max_events=(fault_cfg.watchdog_max_events
                        if fault_cfg else None),
            max_virtual_time=(fault_cfg.watchdog_max_virtual_time
                              if fault_cfg else None))
        self.rng = DeterministicRng(config.seed)
        #: Deterministic fault schedule; None when injection is off.
        #: One plan serves the whole cluster, as one served the machine.
        self.faults: FaultPlan | None = (
            FaultPlan(fault_cfg, self.rng.fork("faults"))
            if fault_cfg is not None and fault_cfg.enabled else None)

        #: Trace collector; live only under --trace.
        #: One shared ring: cross-host ordering is the point.
        self.trace = (TraceCollector(self.engine.clock, mode=ctx.trace)
                      if ctx.trace is not None else NULL_TRACE)
        self.engine.trace = self.trace

        multi = len(config.hosts) > 1
        self.hosts: list[Host] = []
        for host_id, node in enumerate(config.hosts):
            # One host draws from the root RNG itself: its fork labels
            # are the bare single-host ones (bit-compat).
            host_rng = (self.rng.fork(f"host-{node.name}") if multi
                        else self.rng)
            host_trace = self.trace
            if multi and self.trace.enabled:
                host_trace = HostTaggedTrace(self.trace, node.name)
            self.hosts.append(Host(
                node, host_id=host_id, engine=self.engine, rng=host_rng,
                faults=self.faults, trace=host_trace,
                audit_label=node.name if multi else None))

        #: Every VM ever placed, in placement (vm_id) order.
        self.vms: list[Vm] = []
        #: Placement log: (vm name, host name), in placement order.
        self.placements: list[tuple[str, str]] = []
        #: Completed migrations, in execution order.
        self.migrations: list[MigrationRecord] = []
        self._region_seq = 0

        #: VMs recovery could not re-home (typed figure holes), in
        #: loss order.
        self.lost: list[VmLost] = []
        #: Host-failure recovery; idle (and free) unless a host fails.
        self.evac = EvacuationController(
            self, EvacuationPolicy.from_fault_config(fault_cfg))

        #: Cross-host invariant auditor; --paranoid only.
        self.auditor: ClusterInvariantAuditor | None = (
            ClusterInvariantAuditor(self) if ctx.paranoid else None)

        if config.migration.enabled:
            self.engine.add_periodic(
                config.migration.check_interval, self.pressure_tick)
        if self.faults is not None:
            self._schedule_host_faults()

    # ------------------------------------------------------------------
    # clock and rollups
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.engine.now

    def run(self, until: float | None = None) -> float:
        """Run the engine until all work completes (or ``until``)."""
        return self.engine.run(until)

    def aggregate_counters(self) -> dict[str, int]:
        """Cluster-wide sum of every VM's counters."""
        totals: dict[str, int] = {}
        for vm in self.vms:
            for name, value in vm.counters.snapshot().items():
                totals[name] = totals.get(name, 0) + value
        return totals

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------

    def create_vm(self, vm_config: VmConfig, *,
                  host: Host | None = None) -> Vm:
        """Place and instantiate a VM (``host`` overrides the policy)."""
        target = (host if host is not None
                  else choose_host(self.cfg.placement, self.hosts,
                                   vm_config))
        vm = target.create_vm(vm_config, vm_id=len(self.vms))
        self.vms.append(vm)
        self.placements.append((vm_config.name, target.name))
        if len(self.hosts) > 1 and self.trace.enabled:
            self.trace.emit("cluster.place", vm=vm_config.name,
                            host=target.name)
        if self.auditor is not None:
            self.auditor.check(f"place:{vm_config.name}")
        return vm

    # ------------------------------------------------------------------
    # pressure-driven migration
    # ------------------------------------------------------------------

    def pressure_tick(self) -> list[MigrationRecord]:
        """One controller pass: evacuate every over-pressure host.

        Runs periodically when migration is enabled; callable directly
        from tests.  Hosts are visited in id order; each is relieved
        until it drops below its threshold or no move is possible.
        """
        done: list[MigrationRecord] = []
        for src in self.hosts:
            if not src.alive:
                continue
            while src.over_pressure:
                vm = self._pick_migration_victim(src)
                if vm is None:
                    break
                dst = self._pick_destination(vm, src)
                if dst is None:
                    break
                record = self.migrate(vm, dst)
                done.append(record)
                if record.outcome != "completed":
                    # The copy rolled back: the VM stayed put, so
                    # retrying this tick would spin.  Next tick retries.
                    break
        return done

    def migrate(self, vm: Vm, dst: Host) -> MigrationRecord:
        """Evacuate ``vm`` to ``dst`` and log the move (or rollback)."""
        src = vm.host
        self._region_seq += 1
        fail_point = (self.faults.migration_fail_point(
                          vm.name, self._region_seq)
                      if self.faults is not None else None)
        record = migrate_vm(
            vm, src, dst,
            bandwidth_bytes_per_sec=(
                self.cfg.migration.bandwidth_bytes_per_sec),
            region_name=f"image-{vm.name}@m{self._region_seq}",
            trace=self.trace, fail_point=fail_point)
        self.migrations.append(record)
        if record.outcome != "completed" and self.faults is not None:
            self.faults.counters.bump("migration_rollbacks")
        if self.auditor is not None:
            self.auditor.check(f"migrate:{vm.name}")
        return record

    def _pick_migration_victim(self, src: Host) -> Vm | None:
        """The VM whose evacuation frees the most source swap.

        Largest swap footprint wins, lowest vm_id breaks ties; VMs
        with in-flight DMA or no swap footprint are never moved.
        """
        candidates = [vm for vm in src.vms
                      if vm.swap_slots and not vm.io_pinned]
        if not candidates:
            return None
        return max(candidates,
                   key=lambda vm: (len(vm.swap_slots), -vm.vm_id))

    def _pick_destination(self, vm: Vm, src: Host) -> Host | None:
        """The least-pressured admitting host (never the source)."""
        candidates = [host for host in self.hosts
                      if host is not src and host.can_admit(vm.cfg)]
        if not candidates:
            return None
        return min(candidates,
                   key=lambda host: (host.swap_pressure,
                                     host.committed_fraction,
                                     host.host_id))

    # ------------------------------------------------------------------
    # host faults: crash, degradation, evacuation
    # ------------------------------------------------------------------

    def _schedule_host_faults(self) -> None:
        """Arm the fault plan's host schedule on the engine.

        Crash and degradation times come from fresh forks of the plan's
        ``host_fault_seed`` (never the simulation streams), so hosts the
        schedule leaves alone run bit-identically to an uninjected
        cluster -- arming costs nothing but these engine events.
        """
        plan = self.faults
        for host in self.hosts:
            window = plan.host_degrade_window(host.name)
            if window is not None:
                start, duration, factor = window
                self.engine.schedule_at(
                    start,
                    lambda h=host, f=factor: self._degrade_host(h, f))
                self.engine.schedule_at(
                    start + duration,
                    lambda h=host: self._recover_host(h))
            crash = plan.host_crash_time(host.name)
            if crash is not None:
                self.engine.schedule_at(
                    crash, lambda h=host: self._fail_host(h))

    def _degrade_host(self, host: Host, factor: float) -> None:
        """Enter a transient degradation window (slow disk, still UP
        for admission); no-op if the host already failed."""
        if host.state is not HostState.UP:
            return
        host.degrade(factor)
        if self.faults is not None:
            self.faults.counters.bump("host_degrades")
        if self.trace.enabled:
            self.trace.emit("host.degrade", host=host.name, factor=factor)

    def _recover_host(self, host: Host) -> None:
        """Close the degradation window (no-op unless DEGRADED --
        a crash inside the window wins)."""
        if host.state is not HostState.DEGRADED:
            return
        host.recover()
        if self.trace.enabled:
            self.trace.emit("host.recover", host=host.name)

    def _fail_host(self, host: Host) -> None:
        """Hard-crash ``host``: strip its VMs and hand each to the
        evacuation controller.

        The host's memory and swap die with it, so there is nothing to
        copy *from*: each victim's carried set (logical page contents,
        surviving Mapper associations) is captured first, its restore
        traffic priced, and then every host-side resource is torn down
        before recovery begins re-homing the VM elsewhere.
        """
        if not host.alive:
            return
        src_pressure = host.swap_pressure
        victims = list(host.vms)
        host.fail()
        if self.faults is not None:
            self.faults.counters.bump("host_crashes")
        if self.trace.enabled:
            self.trace.emit("host.fail", host=host.name,
                            vms=len(victims))
        for vm in victims:
            plan = MigrationPlanner().plan(vm)
            transferred = (plan.vswapper_bytes if vm.mapper is not None
                           else plan.baseline_bytes)
            carried, tracked, _buffered = carried_state(vm)
            teardown_vm_on_host(vm, host, carried=carried)
            vm.host = None
            self.evac.begin(
                vm, host.name, carried=carried, tracked=tracked,
                transferred_bytes=transferred, src_pressure=src_pressure)
        if self.auditor is not None:
            self.auditor.check(f"host-fail:{host.name}")
