"""The hypervisor: uncooperative swapping and the virtual I/O path.

This module contains every mechanism the paper characterizes:

* **swap-out** of reclaimed guest pages -- always written because the
  hardware exposes no dirty bit for guest pages (silent swap writes);
* the **virtio read path** that must fault swapped destinations in
  before DMA (stale swap reads);
* **whole-page overwrite** handling (false swap reads), where the
  False Reads Preventer hooks in;
* the **swap-slot allocator + cluster readahead** whose interaction
  produces decayed swap sequentiality; and
* reclaim of the **QEMU executable** as the only named memory in the
  baseline (false page anonymity).

When a VM carries a Swap Mapper, reclaim discards tracked pages and
faults refill from the disk image with sequential readahead instead.
"""

from __future__ import annotations

from repro.config import HostConfig
from repro.core.mapper import TrackState
from repro.core.preventer import OverwriteVerdict
from repro.disk.device import DiskDevice
from repro.disk.image import BlockVersion
from repro.disk.swaparea import HostSwapArea
from repro.errors import ConsistencyError, HostError
from repro.guest.kernel import Transfer
from repro.mem.frames import FramePool
from repro.mem.page import ZERO, AnonContent, PageContent
from repro.host.vm import CODE_KEY, Vm, code_key
from repro.sim.clock import Clock
from repro.sim.ops import WritePattern
from repro.swapback.disk import DiskSwapBackend
from repro.trace.collector import NULL_TRACE
from repro.units import SECTORS_PER_PAGE


#: Largest virtio request processed (and DMA-pinned) at once; bigger
#: guest requests are split, as real virtio rings would.
VIRTIO_MAX_SEGMENT_PAGES = 256


class Hypervisor:
    """Machine-wide host kernel + per-VM QEMU behaviour."""

    def __init__(self, clock: Clock, disk: DiskDevice, frames: FramePool,
                 swap_area: HostSwapArea, cfg: HostConfig,
                 rng=None, faults=None, swapback=None) -> None:
        cfg.validate()
        self.clock = clock
        self.disk = disk
        self.frames = frames
        self.swap_area = swap_area
        self.cfg = cfg
        self.rng = rng
        #: Optional deterministic fault schedule (chaos layer).
        self.faults = faults
        #: Where swapped pages go.  The default routes through the host
        #: disk exactly as the pre-backend code did (bit-identical).
        self.swapback = (swapback if swapback is not None
                         else DiskSwapBackend(disk, swap_area))
        #: Hot-path flag: only capacity-tracking backends need slot-free
        #: notifications, so the default path pays one attribute check.
        self._sb_tracks = self.swapback.tracks_slots
        self.vms: list[Vm] = []
        #: host swap slot -> (vm, gpa) owning its content.
        self.slot_owner: dict[int, tuple[Vm, int]] = {}
        #: vm_id -> circuit breaker accumulating injected mapper faults.
        self._mapper_breakers: dict[int, object] = {}
        #: Runtime invariant auditor; attached by the machine under
        #: --paranoid, None otherwise.
        self.auditor = None
        #: Trace collector; the machine swaps in a live one under
        #: ``--trace``.
        self.trace = NULL_TRACE
        #: Name of the owning cluster host (identity for trace/audit
        #: attribution); set by :class:`repro.cluster.host.Host`.
        self.host_name: str | None = None

    def register_vm(self, vm: Vm) -> None:
        """Add a VM to the reclaim population."""
        self.vms.append(vm)

    # ==================================================================
    # guest-facing entry points (called by GuestKernel)
    # ==================================================================

    def touch_page(self, vm: Vm, gpa: int, write: bool = False,
                   new_content: PageContent | None = None,
                   context: str = "guest") -> None:
        """A guest load or store to ``gpa``.

        This is the hottest host entry point (every guest memory access
        lands here), so the preventer poll and the per-structure
        lookups are gated on non-empty state instead of paid per call.
        """
        preventer = vm.preventer
        if preventer is not None and preventer._emulated:
            self._poll_preventer(vm)
            if gpa in preventer._emulated:
                # Guest touches data the buffer does not fully cover:
                # stop emulating, read the old content, merge (paper:
                # suspend).
                preventer.force_close(gpa)
                vm.counters.preventer_merges += 1
                self._merge_buffered_page(vm, gpa, sync=True,
                                          context=context)
                vm.ept._accessed[gpa] = 1
                if write:
                    self._guest_store(vm, gpa, new_content)
                return
        ept = vm.ept
        if gpa >= ept._size or not ept._present[gpa]:
            if vm.swap_cache and self._promote_swap_cache(vm, gpa):
                pass  # readahead already brought the page in
            elif gpa in vm.swap_slots or self._is_discarded(vm, gpa):
                self._fault_in(vm, gpa, context)
            else:
                self._map_fresh(vm, gpa, context)
        ept._accessed[gpa] = 1
        if write:
            self._guest_store(vm, gpa, new_content)

    def overwrite_page(self, vm: Vm, gpa: int, new_content: PageContent,
                       pattern: WritePattern,
                       context: str = "guest") -> None:
        """The guest overwrites ``gpa`` wholesale, old content unwanted.

        This is the false-swap-read trigger: zeroing, COW, page
        migration (Section 3, "False Swap Reads").  A one-page
        :meth:`overwrite_run`.
        """
        self.overwrite_run(vm, (gpa,), (new_content,), pattern,
                           context=context)

    def overwrite_run(self, vm: Vm, gpas, contents, pattern: WritePattern,
                      guest_costs: tuple[float, ...] = (),
                      context: str = "guest") -> None:
        """The guest overwrites each page of ``gpas`` wholesale, in order.

        ``contents[i]`` becomes the content of ``gpas[i]``.  After the
        host's own charges for a page, the guest's per-page CPU charges
        ``guest_costs`` are added to ``vm.costs`` one by one, so the
        float sum is the one a page-at-a-time caller would build.

        A page with no old content anywhere -- not EPT-present, not in
        the swap cache, not host-swapped, not known to the Mapper -- is
        a minor fault mapped inline over the EPT bitmaps, the frame
        pool and the anon clock list (the way :meth:`_evict_batch`
        unmaps).  That is nearly every page of a demand-zero run.
        Every other page takes :meth:`_overwrite_backed`.  Each page is
        classified when its turn comes: reclaim for an earlier page of
        the run may have swapped out a later one.
        """
        preventer = vm.preventer
        ept = vm.ept
        present = ept._present
        accessed = ept._accessed
        dirty = ept._dirty
        swap_cache = vm.swap_cache
        swap_slots = vm.swap_slots
        mapper = vm.mapper
        tracked = mapper._by_gpa if mapper is not None else None
        content_map = vm.content
        frames = self.frames
        entries = vm.scanner.anon_list._entries
        qemu_resident = vm.qemu.resident
        limit = vm.resident_limit
        costs = vm.costs
        fault_cost = self.cfg.ept_fault_cost
        minor_faults = 0
        try:
            for gpa, content in zip(gpas, contents):
                if preventer is not None and preventer._emulated:
                    self._poll_preventer(vm)
                # A swap-cache page keeps its slot, so ``swap_slots``
                # covers it too.
                if ((gpa < ept._size and present[gpa]) or gpa in swap_slots
                        or (tracked is not None and gpa in tracked)):
                    self._overwrite_backed(vm, gpa, content, pattern,
                                           context)
                else:
                    # Minor fault (``_map_fresh``), then the store.
                    if ((limit is not None
                         and ept._resident + len(qemu_resident)
                         + len(swap_cache) >= limit)
                            or frames._used >= frames.total_frames):
                        self._make_room(vm, 1, context)
                    if gpa >= ept._size:
                        ept._ensure(gpa)
                    present[gpa] = 1
                    accessed[gpa] = 1
                    dirty[gpa] = 1
                    ept._resident += 1
                    frames._used += 1
                    if gpa in entries:
                        entries.move_to_end(gpa)
                    else:
                        entries[gpa] = None
                    costs.cpu_seconds = costs.cpu_seconds + fault_cost
                    minor_faults += 1
                    if vm.swap_clean:
                        self._invalidate_swap_clean(vm, gpa)
                    if content is ZERO:
                        content_map.pop(gpa, None)
                    else:
                        content_map[gpa] = content
                for charge in guest_costs:
                    costs.cpu_seconds = costs.cpu_seconds + charge
        finally:
            if minor_faults:
                extra = vm.counters.extra
                extra["minor_faults"] = (
                    extra.get("minor_faults", 0) + minor_faults)

    def _overwrite_backed(self, vm: Vm, gpa: int, new_content: PageContent,
                          pattern: WritePattern, context: str) -> None:
        """One page of :meth:`overwrite_run` whose old content still
        exists: EPT-present, in the swap cache, host-swapped, or
        discarded by the Mapper (possibly under preventer emulation)."""
        ept = vm.ept
        if ((gpa < ept._size and ept._present[gpa])
                or (vm.swap_cache and self._promote_swap_cache(vm, gpa))):
            ept._accessed[gpa] = 1
            self._guest_store(vm, gpa, new_content)
            return
        if not (gpa in vm.swap_slots or self._is_discarded(vm, gpa)):
            raise ConsistencyError(
                f"tracked-resident page {gpa:#x} is not EPT-mapped")

        preventer = vm.preventer
        if preventer is not None:
            verdict = preventer.classify_overwrite(
                gpa, pattern, self.clock.now)
            vm.costs.cpu(preventer.emulation_cost(pattern))
            vm.counters.preventer_emulated_writes += 1
            if self.trace.enabled:
                self.trace.emit("preventer.emulate", vm=vm.name,
                                gpa=gpa, verdict=verdict.name)
            if verdict is OverwriteVerdict.REMAP:
                self._drop_old_backing(vm, gpa)
                self._map_fresh(vm, gpa, context)
                vm.ept.mark_accessed(gpa, write=True)
                vm.set_content(gpa, new_content)
                vm.counters.preventer_remaps += 1
                return
            if verdict is OverwriteVerdict.BUFFERED:
                # The page stays non-present; the buffer holds the new
                # bytes.  Record the eventual content now -- the merge
                # (on expiry) fills in whatever was not overwritten.
                vm.set_content(gpa, new_content)
                return
            # FALLBACK: fall through to the baseline false read.

        self._fault_in(vm, gpa, context)
        vm.counters.false_reads += 1
        if self.trace.enabled:
            self.trace.emit("fault.false_read", vm=vm.name, gpa=gpa)
        ept._accessed[gpa] = 1
        self._guest_store(vm, gpa, new_content)

    def virtio_read(self, vm: Vm, transfers: list[Transfer],
                    context: str = "host") -> None:
        """Explicit guest disk read: image blocks DMA'd into guest pages."""
        self._poll_preventer(vm)
        self._touch_code(vm, self.cfg.code_pages_per_io)
        mapper = vm.mapper
        for start in range(0, len(transfers), VIRTIO_MAX_SEGMENT_PAGES):
            chunk = transfers[start:start + VIRTIO_MAX_SEGMENT_PAGES]
            gpas = [t.gpa for t in chunk]
            vm.io_pinned.update(gpas)
            try:
                self._virtio_read_locked(vm, chunk, mapper)
            finally:
                vm.io_pinned.difference_update(gpas)
        vm.refresh_gauges()

    def _virtio_read_locked(self, vm: Vm, transfers: list[Transfer],
                            mapper) -> None:
        ept = vm.ept
        preventer = vm.preventer
        swap_slots = vm.swap_slots
        for t in transfers:
            gpa = t.gpa
            if (preventer is not None and preventer._emulated
                    and gpa in preventer._emulated):
                # DMA will overwrite the whole page: the buffer and the
                # old content are both moot.
                preventer.force_close(gpa)
                self._drop_old_backing(vm, gpa)
            if ((gpa < ept._size and ept._present[gpa])
                    or (vm.swap_cache and self._promote_swap_cache(vm, gpa))):
                ept._accessed[gpa] = 1
                ept._dirty[gpa] = 1
                continue
            if gpa in swap_slots:
                # The destination frame was swapped out: the host must
                # fault its *old* content in just to overwrite it.
                self._fault_in(vm, gpa, "host", stale=True)
            elif mapper is not None and mapper.is_discarded(gpa):
                # Mapper knows the old content is about to be replaced:
                # drop the association, map a fresh frame, no read.
                mapper.drop_gpa(gpa)
                self._map_fresh(vm, gpa, "host")
            else:
                self._map_fresh(vm, gpa, "host")
            ept._accessed[gpa] = 1
            ept._dirty[gpa] = 1

        for start, count in self._block_runs(transfers):
            stall = self.disk.read(
                vm.image.sector_of(start), count * SECTORS_PER_PAGE,
                region=vm.image.region.name)
            vm.costs.io(stall)
            vm.counters.disk_ops += 1
            vm.counters.virtual_io_sectors += count * SECTORS_PER_PAGE

        image_current = vm.image.current
        set_content = vm.set_content
        scanner = vm.scanner
        # change_kind inlined: drop the key from the other list, then
        # tail-insert on the target (pop + insert == move_to_end).
        named_entries = scanner.named_list._entries
        anon_entries = scanner.anon_list._entries
        named_pop = named_entries.pop
        anon_pop = anon_entries.pop
        for t in transfers:
            gpa = t.gpa
            if mapper is not None and mapper.is_tracked_resident(gpa):
                mapper.drop_gpa(gpa)  # DMA replaced the old bytes
            set_content(gpa, image_current(t.block))
            ept._dirty[gpa] = 0
            if vm.swap_clean:
                self._invalidate_swap_clean(vm, gpa)
            if mapper is not None and t.aligned and not mapper.disabled:
                mapper.track(gpa, t.block)
                anon_pop(gpa, None)
                named_pop(gpa, None)
                named_entries[gpa] = None
                vm.costs.cpu(self.cfg.mmap_page_cost)
                self._maybe_fault_mapper(vm, gpa)
            else:
                named_pop(gpa, None)
                anon_pop(gpa, None)
                anon_entries[gpa] = None

    def virtio_write(self, vm: Vm, transfers: list[Transfer],
                     sync: bool = False) -> None:
        """Explicit guest disk write: guest pages DMA'd to image blocks."""
        self._poll_preventer(vm)
        self._touch_code(vm, self.cfg.code_pages_per_io)
        mapper = vm.mapper
        for start in range(0, len(transfers), VIRTIO_MAX_SEGMENT_PAGES):
            chunk = transfers[start:start + VIRTIO_MAX_SEGMENT_PAGES]
            gpas = [t.gpa for t in chunk]
            vm.io_pinned.update(gpas)
            try:
                self._virtio_write_locked(vm, chunk, mapper, sync)
            finally:
                vm.io_pinned.difference_update(gpas)
        vm.refresh_gauges()

    def _virtio_write_locked(self, vm: Vm, transfers: list[Transfer],
                             mapper, sync: bool) -> None:
        ept = vm.ept
        preventer = vm.preventer
        swap_slots = vm.swap_slots
        for t in transfers:
            gpa = t.gpa
            if mapper is not None:
                self._invalidate_block_for_write(vm, t.block, gpa)
            if (preventer is not None and preventer._emulated
                    and gpa in preventer._emulated):
                # DMA must read the page: finish the emulation first.
                preventer.force_close(gpa)
                vm.counters.preventer_merges += 1
                self._merge_buffered_page(vm, gpa, sync=True,
                                          context="host")
            elif gpa >= ept._size or not ept._present[gpa]:
                if vm.swap_cache and self._promote_swap_cache(vm, gpa):
                    pass
                elif (gpa in swap_slots
                      or (mapper is not None and mapper.is_discarded(gpa))):
                    # Double paging flavour: the guest writes out a page
                    # the host had already swapped out.
                    self._fault_in(vm, gpa, "host")
                    vm.counters.double_paging += 1
                else:
                    self._map_fresh(vm, gpa, "host")
            ept._accessed[gpa] = 1

        for start, count in self._block_runs(transfers):
            sector = vm.image.sector_of(start)
            nsectors = count * SECTORS_PER_PAGE
            if sync:
                stall = self.disk.write_sync(
                    sector, nsectors, region=vm.image.region.name)
                vm.costs.io(stall)
            else:
                throttle = self.disk.write_async(
                    sector, nsectors, region=vm.image.region.name)
                if throttle:
                    vm.costs.io(throttle)
            vm.counters.disk_ops += 1
            vm.counters.virtual_io_sectors += nsectors

        image_write = vm.image.write
        set_content = vm.set_content
        for t in transfers:
            gpa = t.gpa
            # The bytes on disk are now exactly the page's bytes.
            set_content(gpa, image_write(t.block))
            ept._dirty[gpa] = 0
            if vm.swap_clean:
                self._invalidate_swap_clean(vm, gpa)
            if mapper is not None and t.aligned and not mapper.disabled:
                mapper.track(gpa, t.block)
                vm.scanner.change_kind(gpa, named=True)
                vm.costs.cpu(self.cfg.mmap_page_cost)
                self._maybe_fault_mapper(vm, gpa)

    def balloon_pin(self, vm: Vm, gpas: list[int]) -> None:
        """The guest balloon pinned ``gpas``: release their host backing.

        One hoisted loop over the whole inflation: the EPT unmap, the
        clock-list removals and the preventer close are inlined, frames
        are released once at the end, and only pages the Mapper tracks
        pay a ``drop_gpa`` call.
        """
        preventer = vm.preventer
        emulated = preventer._emulated if preventer is not None else None
        ept = vm.ept
        present = ept._present
        size = ept._size
        named_pop = vm.scanner.named_list._entries.pop
        anon_pop = vm.scanner.anon_list._entries.pop
        swap_cache = vm.swap_cache
        swap_slots = vm.swap_slots
        pending_swap = vm.pending_swap
        swap_clean = vm.swap_clean
        slot_owner = self.slot_owner
        mapper = vm.mapper
        tracked = mapper._by_gpa if mapper is not None else None
        content = vm.content
        ballooned_add = vm.ballooned.add
        unmapped = 0
        cache_drops = 0
        for gpa in gpas:
            if emulated:
                emulated.pop(gpa, None)  # force_close
            if 0 <= gpa < size and present[gpa]:
                present[gpa] = 0
                unmapped += 1
                named_pop(gpa, None)
                anon_pop(gpa, None)
            if gpa in swap_cache:
                del swap_cache[gpa]
                cache_drops += 1
                named_pop(gpa, None)
                anon_pop(gpa, None)
            slot = swap_slots.pop(gpa, None)
            if slot is not None:
                pending_swap.pop(gpa, None)
                self.swap_area.free(slot)
                if self._sb_tracks:
                    self.swapback.note_free(slot)
                slot_owner.pop(slot, None)
            if swap_clean:
                self._invalidate_swap_clean(vm, gpa)
            if tracked is not None and gpa in tracked:
                mapper.drop_gpa(gpa)
            content.pop(gpa, None)
            ballooned_add(gpa)
        ept._resident -= unmapped
        if unmapped or cache_drops:
            self.frames.release(unmapped + cache_drops)
        if self.trace.enabled:
            self.trace.emit("balloon.pin", vm=vm.name, pages=len(gpas))
        vm.refresh_gauges()

    def balloon_unpin(self, vm: Vm, gpas: list[int]) -> None:
        """Balloon deflation: pages return to the guest, content undefined."""
        vm.ballooned.difference_update(gpas)
        if self.trace.enabled:
            self.trace.emit("balloon.unpin", vm=vm.name, pages=len(gpas))

    def page_needs_zeroing(self, vm: Vm, gpa: int) -> bool:
        """Whether a free guest page holds stale non-zero bytes
        (probed by the Windows zero-page thread)."""
        return vm.content_of(gpa) is not ZERO

    # ==================================================================
    # fault handling
    # ==================================================================

    def _fault_in(self, vm: Vm, gpa: int, context: str,
                  stale: bool = False) -> None:
        """Major fault: bring swapped/discarded content back to memory."""
        if gpa in vm.pending_swap:
            # Swap cache hit: the eviction's write never reached disk,
            # so the page is still in memory -- cancel and remap.
            self._cancel_pending_swap(vm, gpa)
            self._make_room(vm, 1, context)
            vm.ept.map_page(gpa, accessed=True, dirty=False)
            self.frames.allocate(1)
            entries = vm.scanner.anon_list._entries
            if gpa in entries:
                entries.move_to_end(gpa)
            else:
                entries[gpa] = None
            costs = vm.costs
            costs.cpu_seconds = costs.cpu_seconds + self.cfg.minor_fault_cost
            extra = vm.counters.extra
            extra["swap_cache_hits"] = extra.get("swap_cache_hits", 0) + 1
            return
        if context == "guest":
            vm.counters.guest_context_faults += 1
        else:
            vm.counters.host_context_faults += 1
        if stale:
            vm.counters.stale_reads += 1
        if self.trace.enabled:
            self.trace.emit("fault.major", vm=vm.name, gpa=gpa,
                            context=context, stale=stale)
        self._touch_code(vm, self.cfg.code_pages_per_fault)
        if gpa in vm.swap_slots:
            self._swap_in(vm, gpa, context)
        elif self._is_discarded(vm, gpa):
            self._refault_from_image(vm, gpa, context)
        else:
            raise HostError(
                f"fault on {gpa:#x} with no swapped or discarded backing")
        costs = vm.costs
        costs.cpu_seconds = costs.cpu_seconds + self.cfg.ept_fault_cost

    def _swap_in(self, vm: Vm, gpa: int, context: str) -> None:
        """Read a cluster around the faulting slot (swap readahead).

        The cluster's *usefulness* -- whether neighbouring slots hold
        pages this guest will touch next -- is exactly what decays as
        the swap area loses sequentiality.
        """
        swap_slots = vm.swap_slots
        slot = swap_slots[gpa]
        cluster = self.swap_area.cluster_of(slot, self.cfg.swap_cluster_pages)
        on_disk: list[tuple[int, int]] = []   # (slot, gpa) needing a read
        slot_owner_get = self.slot_owner.get
        swap_clean = vm.swap_clean
        pending_swap = vm.pending_swap
        swap_cache = vm.swap_cache
        faulting_readable = False
        for s in cluster:
            owner = slot_owner_get(s)
            if owner is None or owner[0] is not vm:
                continue
            g = owner[1]
            if g not in swap_slots or g in swap_clean:
                continue
            if g in pending_swap or g in swap_cache:
                continue  # already resident in host memory
            on_disk.append((s, g))
            if s == slot:
                faulting_readable = True
        if not faulting_readable:
            raise HostError(f"swap slot {slot} not readable")
        if self.faults is not None and self.faults.swap_slot_corrupted():
            # Checksum mismatch on the slot the guest needs: the data is
            # gone and must never be handed over -- fail loudly instead
            # of returning stale bytes.
            vm.counters.bump("swap_slot_corruptions")
            self.faults.counters.bump("swap_slot_corruptions")
            raise HostError(
                f"swap slot {slot} corrupted (checksum mismatch) for "
                f"page {gpa:#x} of VM {vm.name}")
        # The cluster walk is ascending, so no min/max pass is needed.
        first = on_disk[0][0]
        last = on_disk[-1][0]
        nsectors = (last - first + 1) * SECTORS_PER_PAGE
        stall = self._read_swap_with_retries(vm, first, last - first + 1)
        self._charge_stall(vm, stall, context)
        vm.counters.disk_ops += 1
        vm.counters.swap_sectors_read += nsectors
        if self.trace.enabled:
            self.trace.emit("swap.in", vm=vm.name, gpa=gpa, slot=slot,
                            pages=len(on_disk), sectors=nsectors)

        self._make_room(vm, len(on_disk), context)
        self.frames.allocate(len(on_disk))
        slot_owner = self.slot_owner
        # note_resident(g, named=False), inlined over the anon clock
        # list: the readahead loop adds every cluster page.
        entries = vm.scanner.anon_list._entries
        for s, g in on_disk:
            if g == gpa:
                # The page the guest actually wants: EPT-map it.  With
                # no hardware dirty bit the host must now assume it
                # dirty, so the slot is released (a later eviction will
                # rewrite it -- the silent-write pessimism).
                del swap_slots[g]
                del slot_owner[s]
                vm.ept.map_page(g, accessed=True, dirty=False)
                if self.cfg.hardware_dirty_bit:
                    # Ablation: keep the slot; its copy stays valid
                    # until the guest really dirties the page.
                    swap_clean[g] = s
                    slot_owner[s] = (vm, g)
                else:
                    self.swap_area.free(s)
                    if self._sb_tracks:
                        self.swapback.note_free(s)
            else:
                # Readahead neighbour: parked in the host swap cache,
                # clean, slot retained.  A guest touch promotes it; a
                # reclaim drop costs nothing.  Crucially it enters the
                # LRU *now*, in slot order -- the next eviction cycle
                # inherits this ordering, which is how swap-layout
                # disorder compounds across cycles (decayed swap
                # sequentiality).
                swap_cache[g] = s
            if g in entries:
                entries.move_to_end(g)
            else:
                entries[g] = None

    def _refault_from_image(self, vm: Vm, gpa: int, context: str,
                            readahead: int | None = None) -> None:
        """Mapper path: re-read a discarded page from the disk image,
        prefetching neighbouring discarded blocks (sequential layout)."""
        mapper = vm.mapper
        if mapper is None:
            raise HostError("image refault without a mapper")
        block = mapper.block_of(gpa)
        window = readahead if readahead is not None \
            else self.cfg.image_readahead_pages
        targets: list[tuple[int, int]] = [(block, gpa)]
        preventer = vm.preventer
        emulated = preventer._emulated if preventer is not None else None
        for b in range(block + 1, min(block + window, vm.image.size_blocks)):
            g2 = mapper.discarded_gpa_for_block(b)
            if g2 is None:
                break  # keep the read contiguous
            if emulated and g2 in emulated:
                # A buffered overwrite already replaced this page's
                # content; its merge reads the old block instead.
                break
            targets.append((b, g2))
        first = targets[0][0]
        last = targets[-1][0]
        nsectors = (last - first + 1) * SECTORS_PER_PAGE
        stall = self.disk.read(
            vm.image.sector_of(first), nsectors,
            region=vm.image.region.name)
        self._charge_stall(vm, stall, context)
        vm.counters.disk_ops += 1
        extra = vm.counters.extra
        extra["image_refault_sectors"] = (
            extra.get("image_refault_sectors", 0) + nsectors)

        self._make_room(vm, len(targets), context)
        for b, g in targets:
            if not vm.image.matches(b, vm.content_of(g)):
                raise ConsistencyError(
                    f"tracked page {g:#x} no longer matches block {b}")
            mapper.mark_refaulted(g)
            vm.ept.map_page(g, accessed=(g == gpa), dirty=False)
            self.frames.allocate(1)
            if mapper.disabled:
                # Degraded (circuit breaker tripped): the refault itself
                # is still image-backed and verified, but the page goes
                # back anonymous so it swaps like the baseline from here.
                mapper.drop_gpa(g)
                vm.scanner.note_resident(g, named=False)
            else:
                vm.scanner.note_resident(g, named=True)

    def _map_fresh(self, vm: Vm, gpa: int, context: str) -> None:
        """Minor fault: map a frame with no disk content to read."""
        self._make_room(vm, 1, context)
        vm.ept.map_page(gpa, accessed=True, dirty=False)
        self.frames.allocate(1)
        # note_resident(gpa, named=False) over the anon clock list,
        # inlined (this is the bulk of list insertions).
        entries = vm.scanner.anon_list._entries
        if gpa in entries:
            entries.move_to_end(gpa)
        else:
            entries[gpa] = None
        costs = vm.costs
        costs.cpu_seconds = costs.cpu_seconds + self.cfg.ept_fault_cost
        extra = vm.counters.extra
        extra["minor_faults"] = extra.get("minor_faults", 0) + 1

    # ==================================================================
    # reclaim
    # ==================================================================

    def _make_room(self, vm: Vm, need: int, context: str) -> None:
        """Ensure ``need`` frames can be mapped for ``vm``.

        Clean swap-cache pages go first (free to drop), then the clock
        scan picks real victims.
        """
        limit = vm.resident_limit
        if limit is not None:
            batch = self.cfg.reclaim_batch_pages
            ept = vm.ept
            qemu_resident = vm.qemu.resident
            swap_cache = vm.swap_cache
            while (ept._resident + len(qemu_resident) + len(swap_cache)
                   + need > limit):
                self._evict_batch(vm, batch, context)
        frames = self.frames
        while frames.total_frames - frames._used < need:
            victim = self._pick_global_victim()
            self._evict_batch(victim, self.cfg.reclaim_batch_pages, context)

    def _promote_swap_cache(self, vm: Vm, gpa: int) -> bool:
        """Guest touched a swap-cache page: EPT-map it without I/O.

        Returns False when the page is not in the swap cache.  With no
        hardware dirty bit, promotion makes the page dirty-assumed, so
        its retained slot is released.
        """
        slot = vm.swap_cache.pop(gpa, None)
        if slot is None:
            return False
        del vm.swap_slots[gpa]
        if self.cfg.hardware_dirty_bit:
            # Ablation: the slot copy stays valid until a real store.
            vm.swap_clean[gpa] = slot
        else:
            self.slot_owner.pop(slot, None)
            self.swap_area.free(slot)
            if self._sb_tracks:
                self.swapback.note_free(slot)
        # The page keeps its LRU position from swap-in arrival; the
        # accessed bit gives it its second chance.  Re-adding it here
        # would reset the list to access order and erase the ordering
        # inheritance that drives sequentiality decay.  The map is
        # inlined over the bitmaps (a swap-cache page is never
        # EPT-present, and the table covers the guest's whole GPA
        # space): this runs once per promoted readahead page.
        ept = vm.ept
        ept._present[gpa] = 1
        ept._accessed[gpa] = 1
        ept._dirty[gpa] = 0
        ept._resident += 1
        costs = vm.costs
        costs.cpu_seconds = costs.cpu_seconds + self.cfg.minor_fault_cost
        extra = vm.counters.extra
        extra["swap_cache_promotions"] = (
            extra.get("swap_cache_promotions", 0) + 1)
        return True

    def _pick_global_victim(self) -> Vm:
        """Under machine-wide pressure, reclaim from the biggest VM."""
        candidates = [
            v for v in self.vms if v.scanner.resident > 0 or v.swap_cache]
        if not candidates:
            raise HostError("global memory pressure with nothing reclaimable")
        return max(candidates, key=lambda v: v.resident_pages)

    def _evict_batch(self, vm: Vm, want: int, context: str) -> None:
        """Evict one scanner batch.

        This loop runs once per reclaimed page -- around 100k times per
        figure cell -- so the EPT unmap, the frame release, and the
        counter bumps are inlined over the bitmaps and accumulated
        locally instead of paid as per-page method calls.  Victims come
        off the scanner lists, which track residency exactly, so the
        presence validation ``Ept.unmap_page`` would do is implied (and
        still checked by the auditor under ``--paranoid``).
        """
        result = vm.scanner.pick_victims(want)
        counters = vm.counters
        counters.pages_scanned += result.examined
        victims = result.victims
        if not victims:
            raise HostError(f"VM {vm.name}: no reclaimable pages")
        mapper = vm.mapper
        is_tracked = mapper.is_tracked_resident if mapper is not None else None
        swap_cache = vm.swap_cache
        swap_clean = vm.swap_clean
        hardware_dirty_bit = self.cfg.hardware_dirty_bit
        qemu_resident = vm.qemu.resident
        qemu_accessed = vm.qemu.accessed
        ept = vm.ept
        present = ept._present
        accessed = ept._accessed
        dirty_bits = ept._dirty
        swap_outs: list[int] = []
        take_swap_out = swap_outs.append
        code_drops = 0
        cache_drops = 0
        unmapped = 0
        discards = 0
        for key in victims:
            if type(key) is tuple:
                # Hypervisor code page: clean, file-backed -> dropped.
                index = key[1]
                qemu_resident.discard(index)
                qemu_accessed.discard(index)
                code_drops += 1
                continue
            gpa = key
            if swap_cache.pop(gpa, None) is not None:
                # Clean swap-cache page: drop the frame, the slot copy
                # is still valid -- no write, no unmapping to do.
                cache_drops += 1
                continue
            was_dirty = dirty_bits[gpa]
            present[gpa] = 0
            accessed[gpa] = 0
            dirty_bits[gpa] = 0
            unmapped += 1
            if is_tracked is not None and is_tracked(gpa):
                # VSwapper: the page equals its image block -- discard.
                mapper.mark_discarded(gpa)
                discards += 1
                continue
            if hardware_dirty_bit and not was_dirty and gpa in swap_clean:
                # Ablation: the retained swap copy is still valid.
                slot = swap_clean.pop(gpa)
                vm.swap_slots[gpa] = slot
                continue
            if swap_clean:
                self._invalidate_swap_clean(vm, gpa)
            take_swap_out(gpa)
        ept._resident -= unmapped
        evicted = code_drops + cache_drops + unmapped
        self.frames.release(evicted)
        counters.host_evictions += evicted
        if discards:
            counters.mapper_discards += discards
        if cache_drops:
            extra = counters.extra
            extra["swap_cache_drops"] = (
                extra.get("swap_cache_drops", 0) + cache_drops)
        if swap_outs:
            self._swap_out(vm, swap_outs)
        vm.refresh_gauges()
        if self.auditor is not None:
            # Reclaim just rewired EPT entries, slots, and associations:
            # the exact moment accounting bugs become visible.
            self.auditor.on_reclaim(vm)

    def _swap_out(self, vm: Vm, gpas: list[int]) -> None:
        """Queue victims for swap write-back -- all of them, dirty or
        not, because the hardware gives the host no dirty bit for guest
        pages (silent swap writes).  Pages sit in the swap cache until
        the write-back batch flushes."""
        slots = self.swap_area.allocate_run(len(gpas))
        swap_slots = vm.swap_slots
        slot_owner = self.slot_owner
        pending_swap = vm.pending_swap
        content_get = vm.content.get
        # A page is a silent swap write iff its content is a
        # BlockVersion still matching the image -- i.e. the image holds
        # the same version of that block.  This inlines
        # ``image.matches(content.block, content)``: the block equality
        # is tautological and every BlockVersion is minted in range.
        version_get = vm.image._versions.get
        trace_on = self.trace.enabled
        silent_writes = 0
        for gpa, slot in zip(gpas, slots):
            swap_slots[gpa] = slot
            slot_owner[slot] = (vm, gpa)
            pending_swap[gpa] = slot
            content = content_get(gpa, ZERO)
            silent = (type(content) is BlockVersion
                      and content.version == version_get(content.block, 0))
            if silent:
                silent_writes += 1
            if trace_on:
                self.trace.emit("swap.out", vm=vm.name, gpa=gpa,
                                slot=slot, silent=silent)
        if silent_writes:
            vm.counters.silent_swap_writes += silent_writes
        if len(pending_swap) >= self.cfg.swap_writeback_batch_pages:
            self._flush_swap_writes(vm)

    def _flush_swap_writes(self, vm: Vm) -> None:
        """Issue the buffered swap-out writes as large requests."""
        if not vm.pending_swap:
            return
        slots = sorted(vm.pending_swap.values())
        vm.pending_swap.clear()
        run_start = slots[0]
        prev = slots[0]
        run_len = 1
        for s in slots[1:]:
            if s == prev + 1:
                run_len += 1
            else:
                self._issue_swap_write(vm, run_start, run_len)
                run_start = s
                run_len = 1
            prev = s
        self._issue_swap_write(vm, run_start, run_len)

    def _issue_swap_write(self, vm: Vm, first_slot: int, npages: int) -> None:
        throttle = self.swapback.store(first_slot, npages)
        if throttle:
            vm.costs.io(throttle)
        vm.counters.disk_ops += 1
        vm.counters.swap_sectors_written += npages * SECTORS_PER_PAGE

    def _cancel_pending_swap(self, vm: Vm, gpa: int) -> None:
        """A buffered swap-out proved unnecessary: drop it entirely."""
        slot = vm.pending_swap.pop(gpa)
        del vm.swap_slots[gpa]
        self.slot_owner.pop(slot, None)
        self.swap_area.free(slot)
        if self._sb_tracks:
            # The flush never ran, so the backend never saw the slot;
            # note_free tolerates that by contract.
            self.swapback.note_free(slot)

    # ==================================================================
    # hypervisor code pages (false page anonymity)
    # ==================================================================

    def _touch_code(self, vm: Vm, n: int) -> None:
        qemu = vm.qemu
        if n <= 0 or qemu.code_pages == 0:
            return
        accessed_add = qemu.accessed.add
        resident = qemu.resident
        for index in qemu.next_touches(n):
            accessed_add(index)
            if index in resident:
                continue
            # Executable page was reclaimed: fault while host runs.
            vm.counters.host_context_faults += 1
            vm.counters.hypervisor_code_faults += 1
            cached = (self.rng is not None
                      and self.rng.chance(self.cfg.code_cache_hit_rate))
            if self.trace.enabled:
                self.trace.emit("fault.code", vm=vm.name,
                                index=index, cached=cached)
            if cached:
                # The binary is shared (other QEMUs, host daemons): the
                # page is usually still in the host page cache, so the
                # refault is minor -- no disk read, just the fault cost.
                cluster = [index]
                self._make_room(vm, 1, "host")
                costs = vm.costs
                costs.cpu_seconds = (
                    costs.cpu_seconds + self.cfg.minor_fault_cost)
            else:
                cluster = vm.qemu.fault_cluster(
                    index, self.cfg.code_readahead_pages)
                self._make_room(vm, len(cluster), "host")
                stall = self.disk.read(
                    vm.qemu.sector_of(cluster[0]),
                    len(cluster) * SECTORS_PER_PAGE, region="host-root")
                vm.costs.io(stall)
                vm.counters.disk_ops += 1
            self.frames.allocate(len(cluster))
            # note_resident(code_key(j), named=True), inlined over the
            # named clock list.
            entries = vm.scanner.named_list._entries
            for j in cluster:
                resident.add(j)
                key = (CODE_KEY, j)
                if key in entries:
                    entries.move_to_end(key)
                else:
                    entries[key] = None

    # ==================================================================
    # preventer support
    # ==================================================================

    def _poll_preventer(self, vm: Vm) -> None:
        """Expire emulation buffers whose 1 ms window lapsed."""
        preventer = vm.preventer
        if preventer is None or not preventer._emulated:
            return
        for gpa in preventer.expired(self.clock.now):
            vm.counters.preventer_merges += 1
            self._merge_buffered_page(vm, gpa, sync=False, context="host")

    def _merge_buffered_page(self, vm: Vm, gpa: int, *, sync: bool,
                             context: str) -> None:
        """Read the old content of a buffered page and merge the buffer.

        ``sync=False`` is the window-expiry path: the guest is not
        waiting for the missing bytes, so the read occupies the disk
        without stalling anyone.  ``sync=True`` is the suspend path:
        the guest (or QEMU) touched bytes the buffer does not hold.
        The merged page no longer equals any disk block, so a Mapper
        association is dropped rather than refaulted.
        """
        if self.trace.enabled:
            self.trace.emit("preventer.merge", vm=vm.name,
                            gpa=gpa, sync=sync)
        slot = vm.swap_slots.pop(gpa, None)
        mapper = vm.mapper
        if slot is not None and gpa in vm.pending_swap:
            # Never reached disk: merge straight from the swap cache.
            vm.pending_swap.pop(gpa)
            self.slot_owner.pop(slot, None)
            self.swap_area.free(slot)
            if self._sb_tracks:
                self.swapback.note_free(slot)
            vm.counters.bump("swap_cache_hits")
        elif slot is not None:
            self.slot_owner.pop(slot, None)
            if sync:
                stall = self.swapback.load(slot, 1)
                self._charge_stall(vm, stall, context)
            else:
                self.swapback.load_async(slot, 1)
            self.swap_area.free(slot)
            if self._sb_tracks:
                self.swapback.note_free(slot)
            vm.counters.disk_ops += 1
            vm.counters.swap_sectors_read += SECTORS_PER_PAGE
        elif mapper is not None and mapper.is_discarded(gpa):
            block = mapper.block_of(gpa)
            sector = vm.image.sector_of(block)
            if sync:
                stall = self.disk.read(
                    sector, SECTORS_PER_PAGE, region=vm.image.region.name)
                self._charge_stall(vm, stall, context)
            else:
                self.disk.read_async(
                    sector, SECTORS_PER_PAGE, region=vm.image.region.name)
            mapper.drop_gpa(gpa)  # merged page no longer equals the block
            vm.counters.disk_ops += 1
        # Map the merged page as a dirty anonymous page.
        self._make_room(vm, 1, context)
        vm.ept.map_page(gpa, accessed=True, dirty=True)
        self.frames.allocate(1)
        vm.scanner.note_resident(gpa, named=False)

    def _drop_old_backing(self, vm: Vm, gpa: int) -> None:
        """Forget swapped/discarded content that is about to be replaced."""
        if gpa in vm.swap_cache:
            del vm.swap_cache[gpa]
            self.frames.release(1)
            vm.scanner.note_evicted(gpa)
        slot = vm.swap_slots.pop(gpa, None)
        if slot is not None:
            vm.pending_swap.pop(gpa, None)
            self.swap_area.free(slot)
            if self._sb_tracks:
                self.swapback.note_free(slot)
            self.slot_owner.pop(slot, None)
        self._invalidate_swap_clean(vm, gpa)
        mapper = vm.mapper
        if mapper is not None and mapper.is_discarded(gpa):
            mapper.drop_gpa(gpa)

    # ==================================================================
    # stores and consistency
    # ==================================================================

    def _guest_store(self, vm: Vm, gpa: int,
                     new_content: PageContent | None) -> None:
        """Bookkeeping for a CPU store to a present page."""
        vm.ept._dirty[gpa] = 1
        if vm.swap_clean:
            self._invalidate_swap_clean(vm, gpa)
        mapper = vm.mapper
        if mapper is not None and mapper.is_tracked_resident(gpa):
            # Private-mmap COW: the store severs the disk association.
            mapper.break_cow(gpa)
            vm.counters.mapper_cow_breaks += 1
            vm.costs.cpu(self.cfg.cow_exit_cost)
            vm.scanner.change_kind(gpa, named=False)
        content = vm.content
        if new_content is not None:
            if new_content is ZERO:
                content.pop(gpa, None)
            else:
                content[gpa] = new_content
        elif type(content.get(gpa, ZERO)) is not AnonContent:
            content[gpa] = AnonContent.fresh()

    def _invalidate_block_for_write(self, vm: Vm, block: int,
                                    writer_gpa: int) -> None:
        """Section 4.1 "Data Consistency": ordinary I/O is about to
        overwrite ``block``; any *other* page mapped to it must be
        detached first -- and fetched from disk if it was discarded,
        because the guest may later read its old bytes through memory.
        """
        mapper = vm.mapper
        owner = mapper.owner_of_block(block)
        if owner is None or owner.gpa == writer_gpa:
            return
        if owner.state is TrackState.DISCARDED:
            # Fetch C0 before C1 lands on disk.  A page under Preventer
            # emulation needs C0 only for its merge, so merge it now.
            preventer = vm.preventer
            if preventer is not None and owner.gpa in preventer._emulated:
                preventer.force_close(owner.gpa)
                vm.counters.preventer_merges += 1
                self._merge_buffered_page(vm, owner.gpa, sync=True,
                                          context="host")
            else:
                self._refault_from_image(vm, owner.gpa, "host", readahead=1)
            vm.counters.mapper_invalidations += 1
        if mapper.is_tracked_resident(owner.gpa):
            gpa = owner.gpa
            mapper.drop_gpa(gpa)
            if vm.ept.is_present(gpa):
                vm.scanner.change_kind(gpa, named=False)

    def _invalidate_swap_clean(self, vm: Vm, gpa: int) -> None:
        """Drop a retained clean swap copy (hardware-dirty-bit ablation)."""
        slot = vm.swap_clean.pop(gpa, None)
        if slot is not None:
            self.slot_owner.pop(slot, None)
            self.swap_area.free(slot)
            if self._sb_tracks:
                self.swapback.note_free(slot)

    def free_swap_slot(self, slot: int) -> None:
        """Release one slot, notifying a capacity-tracking backend
        (the teardown/migration path's counterpart of the inlined
        reclaim-side frees)."""
        self.swap_area.free(slot)
        if self._sb_tracks:
            self.swapback.note_free(slot)

    # ==================================================================
    # fault injection (chaos layer)
    # ==================================================================

    def _read_swap_with_retries(self, vm: Vm, first_slot: int,
                                npages: int) -> float:
        """Swap-in read surviving injected failures by re-reading.

        Each failed attempt costs the backoff wait plus a full re-read;
        exhausting the retry budget raises :class:`HostError` -- the
        guest never receives a page the host could not actually read.
        """
        plan = self.faults
        stall = self.swapback.load(first_slot, npages)
        if plan is None or not plan.enabled:
            return stall
        attempt = 1
        while plan.swap_read_failure():
            if attempt > plan.max_retries:
                raise HostError(
                    f"swap read at slot {first_slot} failed after "
                    f"{attempt} attempts")
            stall += plan.retry_backoff(attempt)
            stall += self.swapback.load(first_slot, npages)
            vm.counters.bump("swap_read_retries")
            plan.counters.bump("swap_read_retries")
            attempt += 1
        return stall

    def _maybe_fault_mapper(self, vm: Vm, gpa: int) -> None:
        """Possibly inject a forced consistency invalidation on ``gpa``.

        Models the Section 4.1 situation where a tracked association can
        no longer be trusted: the safe response is always to sever the
        link (the page degrades to ordinary anonymous memory).  Repeated
        injections trip the VM's circuit breaker into full baseline
        fallback.
        """
        plan = self.faults
        mapper = vm.mapper
        if (plan is None or mapper is None or mapper.disabled
                or not plan.mapper_invalidation()):
            return
        if mapper.is_tracked_resident(gpa):
            mapper.drop_gpa(gpa)
            if vm.ept.is_present(gpa):
                vm.scanner.change_kind(gpa, named=False)
        vm.counters.bump("mapper_forced_invalidations")
        plan.counters.bump("mapper_forced_invalidations")
        breaker = self._mapper_breakers.get(vm.vm_id)
        if breaker is None:
            breaker = plan.new_breaker()
            self._mapper_breakers[vm.vm_id] = breaker
        if breaker.record():
            self._trip_mapper_breaker(vm)

    def _trip_mapper_breaker(self, vm: Vm) -> None:
        """Too many untrusted associations: fall back to baseline
        swapping for this guest (tracking off, resident links severed,
        discarded pages stay refaultable)."""
        for gpa in vm.mapper.disable():
            if vm.ept.is_present(gpa):
                vm.scanner.change_kind(gpa, named=False)
        vm.degraded = True
        vm.counters.bump("mapper_breaker_trips")
        self.faults.counters.bump("mapper_breaker_trips")

    # ==================================================================
    # helpers
    # ==================================================================

    @staticmethod
    def _is_discarded(vm: Vm, gpa: int) -> bool:
        mapper = vm.mapper
        return mapper is not None and mapper.is_discarded(gpa)

    def _charge_stall(self, vm: Vm, stall: float, context: str) -> None:
        if context == "guest":
            vm.costs.fault(stall)
        else:
            vm.costs.io(stall)

    @staticmethod
    def _block_runs(transfers: list[Transfer]) -> list[tuple[int, int]]:
        """Collapse transfers into (start_block, npages) contiguous runs."""
        runs: list[tuple[int, int]] = []
        start = None
        count = 0
        prev = None
        for t in transfers:
            if prev is not None and t.block == prev + 1:
                count += 1
            else:
                if start is not None:
                    runs.append((start, count))
                start = t.block
                count = 1
            prev = t.block
        if start is not None:
            runs.append((start, count))
        return runs
