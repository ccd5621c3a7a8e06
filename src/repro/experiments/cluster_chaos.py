"""Cluster-chaos experiment: fleet survival under injected host crashes.

The fault-tolerance question the density experiment leaves open: *when
nodes die mid-run, how much of the fleet survives, how fast does
evacuation re-home the victims, and what does the disruption cost the
guests that were never touched?*  A four-node cluster runs phased
MapReduce fleets under seeded host-fault schedules -- no faults, one
crash, a mass crash that leaves a single survivor node, and a transient
degradation window -- crossed with placement policies and fleet sizes.

Each cell reports fleet survival (completed / lost), evacuation latency
and retry counts, and a per-VM result *fingerprint* (a hash of the VM's
final counters and runtime).  The assembler cross-checks the injection
cells against their fault-free twins: every VM on an *unaffected* host
-- never crashed, never degraded, never a migration source or
destination -- must reproduce its fault-free fingerprint bit-exactly,
because host faults draw from fresh ``host_fault_seed`` streams and
never touch simulation randomness.  VMs that could not be re-homed
surface as typed ``VmLost`` holes in the figure, never silent drops.

Schedule seeds are chosen empirically (for the four-node fleet at crash
rate 0.45 / degrade rate 0.6) so each schedule produces its designed
shape: ``crash-one`` kills exactly node0 a quarter into the horizon;
``crash-most`` kills node0, node1, and node3, leaving node2 the only
survivor (mass evacuation, then losses once it fills); ``degrade``
opens slow-disk windows on node0 and node1 and crashes nothing.
"""

from __future__ import annotations

import hashlib
import json
from typing import Mapping, Sequence

from repro.cluster import HostState
from repro.config import FaultConfig
from repro.exec.spec import CellSpec, Sweep, fault_params
from repro.experiments.cluster import (
    GUEST_MIB,
    STAGGER_SECONDS,
    fleet_config,
)
from repro.experiments.dynamic import run_fleet
from repro.experiments.runner import (
    ConfigName,
    FigureResult,
    PhaseMark,
    RunResult,
    run_guarded,
    standard_configs,
)
from repro.metrics.report import Table

#: Virtual-time horizon (at scale 1) the host-fault schedule draws
#: crash/degradation times from; scaled down with the workload.
FAULT_HORIZON = 240.0

#: Host crash probability per node under the crash schedules.
CRASH_RATE = 0.45

#: Degradation probability and window shape under ``degrade``.
DEGRADE_RATE = 0.6
DEGRADE_FACTOR = 8.0

#: The fault schedules, keyed by cell-id component.  Values are
#: FaultConfig overrides; None means a fault-free run (the twin every
#: injection cell's survivors are checked against).  Seeds were chosen
#: by scanning ``FaultPlan.host_crash_time``/``host_degrade_window``
#: over the four-node fleet (see module docstring).
SCHEDULES: dict[str, dict | None] = {
    "none": None,
    "crash-one": {"host_crash_rate": CRASH_RATE, "host_fault_seed": 22},
    "crash-most": {"host_crash_rate": CRASH_RATE, "host_fault_seed": 7},
    "degrade": {"host_degrade_rate": DEGRADE_RATE,
                "host_degrade_factor": DEGRADE_FACTOR,
                "host_fault_seed": 4},
}

#: Placement policies crossed with the schedules.
CHAOS_POLICIES = ("first-fit", "balance")

#: Fleet sizes: 8 guests is the four-node admission capacity, so a
#: crash there has nowhere to evacuate to and losses must surface.
CHAOS_FLEET_SIZES = (4, 8)


def schedule_fault_config(schedule: str, *, scale: int) -> FaultConfig | None:
    """The FaultConfig one schedule injects (None for ``none``)."""
    overrides = SCHEDULES[schedule]
    if overrides is None:
        return None
    return FaultConfig(
        enabled=True,
        host_fault_horizon=FAULT_HORIZON / scale,
        host_degrade_duration=FAULT_HORIZON / (4 * scale),
        **overrides,
    )


def _fingerprint(payload: dict) -> str:
    """Stable short hash of one VM's observable outcome."""
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _chaos_cells(schedules: Sequence[str], policies: Sequence[str],
                 fleet_sizes: Sequence[int], *, scale: int,
                 num_hosts: int = 4) -> tuple[CellSpec, ...]:
    """One cell per (schedule, policy, fleet size), vswapper config.

    The cells are *hermetic*: each carries exactly its schedule's fault
    plan (the ``none`` schedule carries none), never the run context's
    plan -- the fault-free twin must stay fault-free or the survivor
    cross-check would compare against a polluted baseline.
    """
    return tuple(
        CellSpec(
            experiment_id="cluster-chaos",
            cell_id=f"{schedule}@{policy}x{n}",
            scale=scale,
            config=ConfigName.VSWAPPER.value,
            params={
                "schedule": schedule,
                "num_guests": n,
                "num_hosts": num_hosts,
                "policy": policy,
            },
            faults=fault_params(
                schedule_fault_config(schedule, scale=scale)),
        )
        for schedule in schedules
        for policy in policies
        for n in fleet_sizes)


def build_cluster_chaos_sweep(
    *,
    scale: int = 1,
    schedules: Sequence[str] = tuple(SCHEDULES),
    policies: Sequence[str] = CHAOS_POLICIES,
    fleet_sizes: Sequence[int] = CHAOS_FLEET_SIZES,
) -> Sweep:
    """Declare the chaos grid: schedule x policy x fleet size."""
    return Sweep("cluster-chaos", _chaos_cells(
        schedules, policies, fleet_sizes, scale=scale))


def cluster_chaos_cell(spec: CellSpec) -> RunResult:
    """Run one chaos cell and fold it into a RunResult.

    The cell's own fault schedule is rebuilt from the spec (not the
    run context's plan), so a cached cell is a pure function of its spec.
    Pressure-driven migration stays off: every move in the log is then
    recovery's doing, which keeps the evacuation accounting exact.
    Placement failures during *initial* deployment mean the fleet never
    fit and the cell reports crashed; losses during the run are data,
    not errors.
    """
    config = standard_configs([ConfigName(spec.config)])[0]

    def run() -> RunResult:
        cluster, drivers = run_fleet(
            fleet_config(
                num_hosts=spec.params["num_hosts"],
                policy=spec.params["policy"], scale=spec.scale,
                seed=spec.seed, migration=False,
                faults=schedule_fault_config(spec.params["schedule"],
                                             scale=spec.scale)),
            config,
            num_guests=spec.params["num_guests"],
            scale=spec.scale,
            stagger_seconds=STAGGER_SECONDS,
            guest_mib=GUEST_MIB,
        )
        completed = [d for d in drivers
                     if not d.crashed and d.started_at is not None]
        runtimes = [d.runtime for d in completed]
        # Recovery may give up a VM whose workload had already
        # finished; that VM counts as completed, not lost.
        finished = {d.vm.name for d in completed}
        lost = [record for record in cluster.lost
                if record.vm_name not in finished]
        touched = {record.src for record in cluster.migrations}
        touched |= {record.dst for record in cluster.migrations}
        touched |= {record.host for record in cluster.lost}
        fingerprints = {}
        final_hosts = {}
        for driver in drivers:
            vm = driver.vm
            fingerprints[vm.name] = _fingerprint({
                "runtime": (driver.runtime
                            if driver.done and not driver.crashed else None),
                "crashed": driver.crashed,
                "counters": vm.counters.snapshot(),
            })
            final_hosts[vm.name] = (vm.host.name if vm.host is not None
                                    else "lost")
        plan_counters = (cluster.faults.counters.snapshot()
                         if cluster.faults is not None else {})
        phases = [PhaseMark("placement", {"vm": vm, "host": host}, 0.0)
                  for vm, host in cluster.placements]
        phases += [PhaseMark("migration", record.to_dict(), record.time)
                   for record in cluster.migrations]
        phases += [PhaseMark("vm-lost", record.to_dict(), record.time)
                   for record in lost]
        phases.append(PhaseMark("survivors", {
            # vm name -> hash of (runtime, counters): the currency of
            # the survivor-identity cross-check.
            "fingerprints": fingerprints,
            # Hosts no fault or migration ever touched; their VMs must
            # match the fault-free twin bit-exactly.
            "unaffected_hosts": [
                host.name for host in cluster.hosts
                if host.state is HostState.UP
                and not host.ever_degraded
                and host.name not in touched],
            "final_hosts": final_hosts,
            "host_states": {h.name: h.state.value for h in cluster.hosts},
            "evac_latencies": dict(cluster.evac.latencies),
        }, 0.0))
        return RunResult(
            config=config.name,
            runtime=sum(runtimes) / len(runtimes) if runtimes else None,
            crashed=False,
            counters={
                "vms_placed": len(cluster.placements),
                "vms_completed": len(runtimes),
                "vms_lost": len(lost),
                "oom_kills": sum(1 for d in drivers
                                 if d.crashed and not d.vm.lost),
                "host_crashes": plan_counters.get("host_crashes", 0),
                "host_degrades": plan_counters.get("host_degrades", 0),
                "evacuations": sum(1 for r in cluster.migrations
                                   if r.kind == "evacuation"
                                   and r.outcome == "completed"),
                "evac_retries": cluster.evac.retries,
            },
            phases=phases,
        )

    return run_guarded(config.name, run)


def _survivors_payload(result: RunResult) -> dict:
    for mark in result.phases:
        if mark.name == "survivors":
            return mark.payload
    return {}


def _chaos_row(result: RunResult, baseline: RunResult | None) -> dict:
    """One figure row: survival, recovery, and the survivor check."""
    placed = result.counters.get("vms_placed", 0)
    lost = result.counters.get("vms_lost", 0)
    payload = _survivors_payload(result)
    latencies = list(payload.get("evac_latencies", {}).values())
    row = {
        "survival_rate": (placed - lost) / placed if placed else None,
        "completed": result.counters.get("vms_completed", 0),
        "lost": lost,
        "evacuations": result.counters.get("evacuations", 0),
        "evac_retries": result.counters.get("evac_retries", 0),
        "mean_evac_latency": (sum(latencies) / len(latencies)
                              if latencies else None),
        "host_crashes": result.counters.get("host_crashes", 0),
        "crashed": result.crashed,
        "slowdown": None,
        "survivors_identical": None,
        "survivors_checked": 0,
    }
    if baseline is not None and not baseline.crashed:
        if result.runtime is not None and baseline.runtime:
            row["slowdown"] = result.runtime / baseline.runtime
        base = _survivors_payload(baseline)
        unaffected = set(payload.get("unaffected_hosts", []))
        survivors = [vm for vm, host in
                     payload.get("final_hosts", {}).items()
                     if host in unaffected]
        mine = payload.get("fingerprints", {})
        theirs = base.get("fingerprints", {})
        row["survivors_checked"] = len(survivors)
        row["survivors_identical"] = all(
            mine.get(vm) == theirs.get(vm) for vm in survivors)
    return row


def assemble_cluster_chaos(sweep: Sweep,
                           results: Mapping[str, RunResult]) -> FigureResult:
    """Build the survival/recovery table and run the survivor check."""
    scale = sweep.cells[0].scale
    baselines = {
        (cell.params["policy"], cell.params["num_guests"]):
            results[cell.cell_id]
        for cell in sweep.cells if cell.params["schedule"] == "none"
    }
    series: dict = {}
    table = Table(
        f"Cluster chaos (scale=1/{scale}): fleet survival under host "
        f"crashes, four nodes",
        ["schedule", "policy", "guests", "survival", "lost",
         "evacs", "retries", "evac lat [s]", "slowdown",
         "survivors identical"],
    )
    holes: list[str] = []
    for cell in sweep.cells:
        schedule = cell.params["schedule"]
        policy = cell.params["policy"]
        n = cell.params["num_guests"]
        result = results[cell.cell_id]
        baseline = (baselines.get((policy, n))
                    if schedule != "none" else None)
        row = _chaos_row(result, baseline)
        series.setdefault(f"{policy}x{n}", {})[schedule] = row
        survival = row["survival_rate"]
        latency = row["mean_evac_latency"]
        if schedule == "none":
            identical = "-"
        elif row["survivors_identical"] is None:
            identical = "?"
        elif row["survivors_checked"] == 0:
            identical = "n/a"
        else:
            identical = ("yes" if row["survivors_identical"]
                         else "NO (BIT-DRIFT)")
        table.add_row(
            schedule, policy, n,
            "-" if survival is None else f"{survival:.0%}",
            row["lost"], row["evacuations"], row["evac_retries"],
            "-" if latency is None else round(latency, 2),
            "-" if row["slowdown"] is None else round(row["slowdown"], 2),
            identical)
        for mark in result.phases:
            if mark.name == "vm-lost":
                holes.append(
                    f"  VmLost: {cell.cell_id}: {mark.payload['vm']} "
                    f"(host {mark.payload['host']}, "
                    f"{mark.payload['attempts']} attempts)")
    rendered = table.render()
    if holes:
        rendered += ("\nExplicit figure holes (VMs recovery could not "
                     "re-home):\n" + "\n".join(holes))
    return FigureResult("cluster-chaos", series, rendered)
