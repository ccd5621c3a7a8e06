"""The invariant auditor installed by ``--paranoid`` runs.

One auditor per :class:`~repro.cluster.host.Host` (every cluster also
installs a :class:`~repro.audit.cluster.ClusterInvariantAuditor` for
the cross-host checks).  Hooks fire it at
operation boundaries, where the simulator's state is supposed to be
consistent: the hypervisor calls :meth:`InvariantAuditor.on_reclaim`
after every eviction batch and the VM driver calls
:meth:`InvariantAuditor.on_phase` at every workload phase mark.  The
cheap O(1) checks (pool bounds, clock monotonicity) run on every hook;
the full structural walk over EPTs, swap slots, and mapper associations
is O(resident + tracked) per VM, so reclaim hooks sample it on a
stride while phase boundaries always get the full walk.

Any breach raises :class:`~repro.errors.InvariantViolation`
immediately -- there is no "log and continue" mode, because a single
violated invariant already means every number downstream of it is
untrustworthy.
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING

from repro.core.mapper import TrackState
from repro.errors import InvariantViolation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.host import Host
    from repro.host.vm import Vm

#: Reclaim events between full structural walks.  Reclaim fires every
#: batch (32 pages), so a stride keeps paranoid runs from turning
#: O(pages) sweeps into O(pages^2); phase boundaries always walk.
DEFAULT_RECLAIM_STRIDE = 64


class InvariantAuditor:
    """Re-checks host-wide invariants at operation boundaries."""

    def __init__(self, host: "Host", *,
                 reclaim_stride: int = DEFAULT_RECLAIM_STRIDE,
                 label: str | None = None) -> None:
        self.host = host
        #: Host name prefixed to violation sites on multi-host clusters
        #: (None on a single host, keeping messages byte-identical).
        self.label = label
        self.reclaim_stride = max(1, reclaim_stride)
        self._last_time = host.engine.now
        self._reclaims_seen = 0
        #: Full structural walks performed (tests assert coverage).
        self.audits = 0
        #: Cheap per-hook checks performed.
        self.quick_checks = 0
        self._suspensions = 0

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------

    @contextlib.contextmanager
    def suspended(self):
        """Silence the hooks across a multi-step state transition.

        A migration/evacuation rebuild maps the carried set back one
        page at a time; reclaim triggered partway through would audit a
        VM that is inconsistent *by construction* (mapper associations
        still RESIDENT, EPT not yet rebuilt).  The caller re-checks
        explicitly once the transition commits.
        """
        self._suspensions += 1
        try:
            yield
        finally:
            self._suspensions -= 1

    def on_reclaim(self, vm: "Vm") -> None:
        """End of one eviction batch: quick checks, sampled full walk."""
        if self._suspensions:
            return
        self._quick(f"reclaim:{vm.name}")
        self._reclaims_seen += 1
        if self._reclaims_seen % self.reclaim_stride == 0:
            self.check(f"reclaim:{vm.name}")

    def on_phase(self, name: str) -> None:
        """A workload phase boundary: always the full walk."""
        if self._suspensions:
            return
        self.check(f"phase:{name}")

    # ------------------------------------------------------------------
    # the checks
    # ------------------------------------------------------------------

    def check(self, where: str) -> None:
        """Run every invariant; raise on the first breach."""
        self._quick(where)
        self.audits += 1
        self._check_frame_conservation(where)
        for vm in self.host.vms:
            self._check_vm(vm, where)

    def _quick(self, where: str) -> None:
        self.quick_checks += 1
        self._check_clock(where)
        problem = self.host.frames.audit_error()
        if problem is not None:
            self._fail(where, problem)

    def _check_clock(self, where: str) -> None:
        engine = self.host.engine
        now = engine.now
        if now < self._last_time:
            self._fail(where, f"engine clock moved backwards: "
                              f"{now} < {self._last_time}")
        self._last_time = now
        earliest = engine.earliest_pending()
        if earliest is not None and earliest < now:
            self._fail(where, f"pending event scheduled in the past: "
                              f"{earliest} < now {now}")

    def _check_frame_conservation(self, where: str) -> None:
        pool = self.host.frames
        attributed = sum(vm.resident_pages for vm in self.host.vms)
        if attributed != pool.used:
            self._fail(where, f"frame accounting drift: VMs hold "
                              f"{attributed} frames, pool says {pool.used}")

    def _check_vm(self, vm: "Vm", where: str) -> None:
        self._check_swap_state(vm, where)
        self._check_mapper(vm, where)

    def _check_swap_state(self, vm: "Vm", where: str) -> None:
        slot_owner = self.host.hypervisor.slot_owner
        for gpa, slot in vm.swap_slots.items():
            if vm.ept.is_present(gpa):
                self._fail(where, f"{vm.name}: page {gpa:#x} is both "
                                  f"swapped out (slot {slot}) and EPT-mapped")
            owner = slot_owner.get(slot)
            if owner is None or owner[0] is not vm or owner[1] != gpa:
                self._fail(where, f"{vm.name}: swap slot {slot} of page "
                                  f"{gpa:#x} has owner {owner!r}")
        for gpa in vm.swap_cache:
            if gpa not in vm.swap_slots:
                self._fail(where, f"{vm.name}: swap-cache page {gpa:#x} "
                                  f"retains no swap slot")
        for gpa in vm.pending_swap:
            if gpa not in vm.swap_slots:
                self._fail(where, f"{vm.name}: pending swap-out of "
                                  f"{gpa:#x} has no swap slot")
        for gpa in vm.ept.iter_present():
            if gpa in vm.ballooned:
                self._fail(where, f"{vm.name}: ballooned page {gpa:#x} is "
                                  f"still EPT-mapped")
        for gpa, slot in vm.swap_clean.items():
            if not vm.ept.is_present(gpa):
                self._fail(where, f"{vm.name}: clean swap copy of "
                                  f"{gpa:#x} but the page is not mapped")
            if gpa in vm.swap_slots:
                self._fail(where, f"{vm.name}: page {gpa:#x} is both "
                                  f"swap-clean and swapped out")
            owner = slot_owner.get(slot)
            if owner is None or owner[0] is not vm or owner[1] != gpa:
                self._fail(where, f"{vm.name}: clean slot {slot} of page "
                                  f"{gpa:#x} has owner {owner!r}")

    def _check_mapper(self, vm: "Vm", where: str) -> None:
        mapper = vm.mapper
        if mapper is None:
            return
        size_blocks = vm.image.size_blocks
        count = 0
        for assoc in mapper.associations():
            count += 1
            if not 0 <= assoc.block < size_blocks:
                self._fail(where, f"{vm.name}: tracked page {assoc.gpa:#x} "
                                  f"names block {assoc.block} outside the "
                                  f"image ({size_blocks} blocks)")
            if mapper.owner_of_block(assoc.block) is not assoc:
                self._fail(where, f"{vm.name}: mapper indices disagree on "
                                  f"block {assoc.block}")
            present = vm.ept.is_present(assoc.gpa)
            if assoc.state is TrackState.RESIDENT and not present:
                self._fail(where, f"{vm.name}: tracked-resident page "
                                  f"{assoc.gpa:#x} is not EPT-mapped")
            if assoc.state is TrackState.DISCARDED:
                if present:
                    self._fail(where, f"{vm.name}: discarded page "
                                      f"{assoc.gpa:#x} is still EPT-mapped")
                if assoc.gpa in vm.swap_slots:
                    self._fail(where, f"{vm.name}: page {assoc.gpa:#x} is "
                                      f"both mapper-discarded and swapped "
                                      f"out")
        if count != mapper.tracked_pages or count != mapper.tracked_blocks:
            self._fail(where, f"{vm.name}: mapper index sizes diverge: "
                              f"{count} walked, {mapper.tracked_pages} by "
                              f"gpa, {mapper.tracked_blocks} by block")

    def _fail(self, where: str, message: str) -> None:
        site = f"{self.label}:{where}" if self.label else where
        raise InvariantViolation(
            f"invariant violated at {site} (t={self.host.now:.6f}): "
            f"{message}")
