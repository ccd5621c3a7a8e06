"""The VM driver: feeds a workload's operations into its guest.

One driver per (VM, workload) pair.  Each engine step pulls the next
operation, lets the guest kernel interpret it, and converts the charged
costs into a duration -- scaling fault stalls by the workload's
asynchronous-page-fault overlap when the host supports it (KVM's async
page faults let a multithreaded guest run other threads while the host
swaps a page in; Section 5.1).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.config import GuestOsKind
from repro.errors import GuestOomKill
from repro.host.vm import Vm
from repro.sim.ops import MarkPhase
from repro.workloads.base import Workload

#: Called on MarkPhase ops: (phase name, payload, virtual time).
PhaseCallback = Callable[[str, dict, float], None]

#: Floor of the fault-overlap factor: even many threads cannot hide
#: stalls entirely, because they fault too.
MIN_OVERLAP = 0.5

#: Balloon pages a guest moves per workload operation at most, so that
#: inflation interleaves with (rather than preempts) the workload.
BALLOON_STEP_PAGES = 2048

#: Virtual seconds a driver sleeps between polls while its VM is
#: homeless (host crashed, evacuation in flight).  The freeze consumes
#: no workload operations: the VM resumes exactly where the crash
#: interrupted it once recovery re-homes it.
EVAC_POLL_INTERVAL = 0.1


def fault_overlap_for(threads: int, async_faults: bool) -> float:
    """Fraction of fault stall charged to a workload's critical path."""
    if not async_faults or threads <= 1:
        return 1.0
    return max(1.0 / threads, MIN_OVERLAP)


class VmDriver:
    """Runs one workload inside one placed VM.

    The driver steps on the engine every host of the VM's cluster
    shares.  Host-specific state (the async-page-fault capability, the
    phase auditor, the trace view) is resolved through ``vm.host``,
    which placement sets and migration rebinds -- a driver follows its
    VM across hosts.
    """

    def __init__(self, vm: Vm, workload: Workload, *,
                 start_delay: float = 0.0,
                 phase_callback: Optional[PhaseCallback] = None) -> None:
        #: The cluster's shared engine; kept because ``vm.host`` is
        #: None while the VM is homeless mid-evacuation.
        self.engine = vm.host.engine
        self.vm = vm
        self.workload = workload
        self.phase_callback = phase_callback
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.crashed = False

        # KVM's asynchronous page faults need guest-side support, which
        # Windows guests lack.
        guest_supports_async = (
            vm.cfg.guest.os_kind is GuestOsKind.LINUX)
        vm.fault_overlap = fault_overlap_for(
            workload.threads,
            vm.host.cfg.async_page_faults and guest_supports_async)
        self._ops = iter(workload.operations())
        self.engine.add_process(self._step, start_delay)

    def _step(self) -> float | None:
        now = self.engine.now
        if self.vm.lost:
            # Host-failure recovery gave the VM up: the workload ends
            # as crashed -- a typed hole, never a silent drop.
            if self.started_at is None:
                self.started_at = now
            self.crashed = True
            self.finished_at = now
            return None
        if self.vm.host is None:
            # Homeless mid-evacuation: frozen, not finished.  Poll
            # without consuming an operation.
            return EVAC_POLL_INTERVAL
        if self.started_at is None:
            self.started_at = now
            self.vm.guest.workload_min_resident = \
                self.workload.min_resident_pages
        try:
            op = next(self._ops)
        except StopIteration:
            self.finished_at = now
            return None

        trace = self.vm.host.trace
        if isinstance(op, MarkPhase):
            auditor = self.vm.host.auditor
            if auditor is not None:
                auditor.on_phase(op.name)
            if trace.enabled:
                trace.emit("phase.mark", vm=self.vm.name, name=op.name)
            if self.phase_callback is not None:
                self.phase_callback(op.name, dict(op.payload), now)

        self.vm.costs.reset()
        # Each guest operation opens a causal span: every host-side
        # event it triggers (faults, swap I/O, reclaim scans) is born
        # inside it, linking consequence back to cause.
        sid = (trace.begin_span(type(op).__name__, vm=self.vm.name)
               if trace.enabled else 0)
        try:
            # Balloon work runs on the guest's own time: inflating
            # means reclaiming (and possibly swapping) right here,
            # competing with the workload -- the paper's Section 2.3
            # responsiveness problem.
            if self.vm.guest.balloon_target != self.vm.guest.balloon_size:
                self.vm.guest.apply_balloon(BALLOON_STEP_PAGES)
            self.vm.guest.execute(op)
        except GuestOomKill:
            self.crashed = True
            self.finished_at = now
            return None
        finally:
            if trace.enabled:
                trace.end_span(sid)
        # Migration downtime lands out-of-band on the VM; the freeze is
        # charged to whatever the guest ran next.
        return (self.vm.costs.duration(self.vm.fault_overlap)
                + self.vm.take_pending_stall())

    @property
    def done(self) -> bool:
        """Whether the workload ran to completion or crashed."""
        return self.finished_at is not None

    @property
    def runtime(self) -> float:
        """Virtual seconds from first op to completion."""
        if self.started_at is None or self.finished_at is None:
            raise RuntimeError(
                f"workload {self.workload.name!r} has not finished")
        return self.finished_at - self.started_at
