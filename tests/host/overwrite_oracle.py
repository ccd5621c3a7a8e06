"""Per-page reference for the hypervisor's whole-page overwrite.

``Hypervisor.overwrite_run`` maps the fresh pages of a run inline over
the EPT bitmaps, the frame pool and the anon clock list.  This module
keeps the page-at-a-time version it replaced -- ``_map_fresh`` for a
page with no old content, the Preventer verdicts and the false read for
one that has some -- so tests can run both on twin machines and demand
identical state, float for float.  The per-page balloon pin and guest
page allocation are kept here for the same reason.
"""

from __future__ import annotations

from repro.core.preventer import OverwriteVerdict
from repro.mem.page import ZERO


def overwrite_page(hyp, vm, gpa, new_content, pattern,
                   context="guest") -> None:
    """The guest overwrites ``gpa`` wholesale, one page at a time."""
    preventer = vm.preventer
    if preventer is not None and preventer._emulated:
        hyp._poll_preventer(vm)
    ept = vm.ept
    if ((gpa < ept._size and ept._present[gpa])
            or (vm.swap_cache and hyp._promote_swap_cache(vm, gpa))):
        ept._accessed[gpa] = 1
        hyp._guest_store(vm, gpa, new_content)
        return
    has_old = gpa in vm.swap_slots or hyp._is_discarded(vm, gpa)
    if not has_old:
        hyp._map_fresh(vm, gpa, context)
        ept._accessed[gpa] = 1
        hyp._guest_store(vm, gpa, new_content)
        return

    if preventer is not None:
        verdict = preventer.classify_overwrite(gpa, pattern, hyp.clock.now)
        vm.costs.cpu(preventer.emulation_cost(pattern))
        vm.counters.preventer_emulated_writes += 1
        if hyp.trace.enabled:
            hyp.trace.emit("preventer.emulate", vm=vm.name,
                           gpa=gpa, verdict=verdict.name)
        if verdict is OverwriteVerdict.REMAP:
            hyp._drop_old_backing(vm, gpa)
            hyp._map_fresh(vm, gpa, context)
            vm.ept.mark_accessed(gpa, write=True)
            vm.set_content(gpa, new_content)
            vm.counters.preventer_remaps += 1
            return
        if verdict is OverwriteVerdict.BUFFERED:
            vm.set_content(gpa, new_content)
            return

    hyp._fault_in(vm, gpa, context)
    vm.counters.false_reads += 1
    if hyp.trace.enabled:
        hyp.trace.emit("fault.false_read", vm=vm.name, gpa=gpa)
    ept._accessed[gpa] = 1
    hyp._guest_store(vm, gpa, new_content)


def overwrite_run(hyp, vm, gpas, contents, pattern, guest_costs=(),
                  context="guest") -> None:
    """:func:`overwrite_page` per page, then the guest's charges."""
    costs = vm.costs
    for gpa, content in zip(gpas, contents):
        overwrite_page(hyp, vm, gpa, content, pattern, context)
        for charge in guest_costs:
            costs.cpu_seconds = costs.cpu_seconds + charge


def alloc_gpa(guest) -> int:
    """One guest page allocation, as a single-page loop.

    The reference for ``GuestKernel._alloc_gpas``: reclaim when the
    free list is at or below the low watermark, then draw the page from
    the window of most recently freed entries with the rejection
    sampling ``random.randint`` uses.
    """
    free_list = guest.free_list
    if len(free_list) <= guest._free_min:
        want = guest._free_target - len(free_list)
        if want > 0:
            guest._guest_reclaim(want)
    if not free_list:
        guest._guest_reclaim(1)
    if not free_list:
        guest._oom("guest out of memory with nothing reclaimable")
    n = len(free_list)
    window = min(guest._alloc_window, n)
    if window > 1:
        k = window.bit_length()
        r = guest._getrandbits(k)
        while r >= window:
            r = guest._getrandbits(k)
        index = n - 1 - r
        free_list[index], free_list[-1] = free_list[-1], free_list[index]
    return free_list.pop()


def balloon_pin(hyp, vm, gpas) -> None:
    """The balloon pinned ``gpas``, one page at a time (the reference
    for the hoisted ``Hypervisor.balloon_pin``)."""
    for gpa in gpas:
        if vm.preventer is not None:
            vm.preventer.force_close(gpa)
        if vm.ept.is_present(gpa):
            vm.ept.unmap_page(gpa)
            hyp.frames.release(1)
            vm.scanner.note_evicted(gpa)
        if gpa in vm.swap_cache:
            del vm.swap_cache[gpa]
            hyp.frames.release(1)
            vm.scanner.note_evicted(gpa)
        slot = vm.swap_slots.pop(gpa, None)
        if slot is not None:
            vm.pending_swap.pop(gpa, None)
            hyp.swap_area.free(slot)
            if hyp._sb_tracks:
                hyp.swapback.note_free(slot)
            hyp.slot_owner.pop(slot, None)
        hyp._invalidate_swap_clean(vm, gpa)
        if vm.mapper is not None:
            vm.mapper.drop_gpa(gpa)
        vm.set_content(gpa, ZERO)
        vm.ballooned.add(gpa)
    if hyp.trace.enabled:
        hyp.trace.emit("balloon.pin", vm=vm.name, pages=len(gpas))
    vm.refresh_gauges()
