"""zswap/zram-style compressed-RAM swap tier.

Pages stay in host memory, compressed: a store costs CPU (compress), a
load costs CPU (decompress), and there is no device queue at all.  The
tier's capacity is counted in *compressed bytes* -- the configured
``capacity_pages`` is a budget of ``capacity_pages * PAGE_SIZE``
compressed bytes, so how many pages actually fit depends on how well
each one compresses.

Each slot's compression ratio is a pure function of ``(cell seed,
slot)``: the draw forks a fresh RNG per slot from a seed captured at
construction, never consuming the backend's (or anyone else's) stream.
Same seed -> same ratio per slot regardless of store order, which is
what makes tier residency reproducible across runs.
"""

from __future__ import annotations

from repro.config import SwapBackendConfig
from repro.errors import DiskError
from repro.sim.rng import DeterministicRng
from repro.units import PAGE_SIZE

from repro.swapback.base import SwapBackend


class CompressedBackend(SwapBackend):
    """Compressed-RAM tier with capacity in compressed bytes."""

    kind = "zram"
    tracks_slots = True

    def __init__(self, cfg: SwapBackendConfig, *, rng=None,
                 faults=None) -> None:
        super().__init__()
        self.cfg = cfg
        self.faults = faults
        #: Seed of the per-slot ratio substream (pure fork).
        self._ratio_seed = (rng.fork("swapback-zram").seed
                            if rng is not None else 1)
        #: slot -> compressed size in bytes.
        self._sizes: dict[int, int] = {}
        self.used_bytes = 0
        self.capacity_bytes = (None if cfg.capacity_pages is None
                               else cfg.capacity_pages * PAGE_SIZE)

    # ------------------------------------------------------------------
    # compression model
    # ------------------------------------------------------------------

    def compressed_size(self, slot: int) -> int:
        """Compressed bytes of the page stored in ``slot``.

        Pure in (seed, slot): a fresh RNG is keyed per draw, so the
        same seed reproduces the same size whatever order slots are
        stored or probed in.
        """
        cfg = self.cfg
        rng = DeterministicRng.keyed(self._ratio_seed, f"ratio:{slot}")
        ratio = rng.uniform(
            cfg.compression_ratio_mean - cfg.compression_ratio_jitter,
            cfg.compression_ratio_mean + cfg.compression_ratio_jitter)
        # An incompressible page is stored verbatim, never inflated.
        ratio = min(1.0, max(ratio, 1 / PAGE_SIZE))
        return max(1, int(PAGE_SIZE * ratio))

    # ------------------------------------------------------------------
    # per-page hooks (TieredBackend composition)
    # ------------------------------------------------------------------

    def fits(self, slot: int) -> bool:
        """Whether ``slot``'s page fits in the remaining byte budget.

        A re-store of a resident slot replaces its old bytes, so those
        count as free for the check.
        """
        if self.capacity_bytes is None:
            return True
        used = self.used_bytes - self._sizes.get(slot, 0)
        return used + self.compressed_size(slot) <= self.capacity_bytes

    def store_page(self, slot: int) -> float:
        size = self.compressed_size(slot)
        old = self._sizes.pop(slot, None)
        if old is not None:
            self.used_bytes -= old
        if (self.capacity_bytes is not None
                and self.used_bytes + size > self.capacity_bytes):
            if old is not None:
                # Undo the eviction: a failed re-store keeps the old copy.
                self._sizes[slot] = old
                self.used_bytes += old
            raise DiskError(
                f"compressed swap tier full: {self.used_bytes} + {size} "
                f"bytes > capacity of {self.capacity_bytes}")
        self._sizes[slot] = size
        self.used_bytes += size
        cost = self.cfg.compress_page_cost
        stats = self.stats
        stats.stores += 1
        stats.pages_stored += 1
        stats.cpu_seconds += cost
        stats.store_seconds += cost
        return cost

    def load_page(self, slot: int) -> float:
        cost = self.cfg.decompress_page_cost
        stats = self.stats
        stats.loads += 1
        stats.pages_loaded += 1
        stats.cpu_seconds += cost
        stats.load_seconds += cost
        return cost

    def drop(self, slot: int) -> None:
        size = self._sizes.pop(slot, None)
        if size is not None:
            self.used_bytes -= size

    # ------------------------------------------------------------------
    # the hypervisor contract
    # ------------------------------------------------------------------

    def _pressure_stall(self) -> float:
        plan = self.faults
        if plan is None:
            return 0.0
        stall = plan.compressed_stall()
        if stall:
            self.stats.compressed_stalls += 1
            plan.counters.bump("compressed_swap_stalls")
        return stall

    def store(self, first_slot: int, npages: int) -> float:
        cost = self._pressure_stall()
        for slot in range(first_slot, first_slot + npages):
            cost += self.store_page(slot)
        if self.trace.enabled:
            self.trace.emit("swapback.store", tier=self.kind,
                            slot=first_slot, pages=npages, throttle=cost)
        return cost

    def load(self, first_slot: int, npages: int) -> float:
        cost = 0.0
        sizes = self._sizes
        for slot in range(first_slot, first_slot + npages):
            # Spanning reads cover holes (slots owned by other VMs or
            # already freed); only slots that actually hold data cost.
            if slot in sizes:
                cost += self.load_page(slot)
        if self.trace.enabled:
            self.trace.emit("swapback.load", tier=self.kind,
                            slot=first_slot, pages=npages, stall=cost)
        return cost

    def note_free(self, slot: int) -> None:
        self.drop(slot)

    # ------------------------------------------------------------------
    # signals
    # ------------------------------------------------------------------

    @property
    def pressure(self) -> float:
        if not self.capacity_bytes:
            return 0.0
        return self.used_bytes / self.capacity_bytes

    def occupancy(self) -> dict:
        return {
            "pages_held": len(self._sizes),
            "used_bytes": self.used_bytes,
            "capacity_bytes": self.capacity_bytes,
        }
