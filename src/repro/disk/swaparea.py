"""Host swap-area slot allocator.

Linux allocates swap slots in *clusters*: a reclaim batch receives a
contiguous run of slots so that related pages land together, which is
what makes swap readahead worthwhile at all.  Freed slots coalesce into
holes and are reused first-fit-by-run.  Decayed swap sequentiality
emerges from the stragglers: pages brought in by readahead but never
touched keep their old slots, so reusable holes fragment over time and
eviction batches are increasingly scattered across slot generations.

Run allocation asks for the lowest-start hole at least ``n`` long, and
a decayed area holds hundreds of holes, so the query runs over an index
by length: the lengths in ascending order and, per length, a min-heap
of hole starts.  Frees outnumber run allocations by an order of
magnitude, so a free only notes the start of the hole it leaves; the
next query files the noted holes into the heaps and visits just the
lengths >= ``n``.  Entries go stale as holes merge or are carved: one
is live while ``_holes[start]`` still equals its length, and stale ones
are dropped when they reach a heap's top or the index is rebuilt.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from heapq import heapify, heappop, heappush

from repro.disk.geometry import DiskRegion
from repro.errors import DiskError


class HostSwapArea:
    """Page-sized swap slots with run (cluster) allocation.

    ``budget_slots`` is a ``memory.swap.max``-style cap: the node may
    never hold more than that many slots at once, however large the
    backing region is.  Exceeding it raises :class:`DiskError` exactly
    like physical exhaustion; a budget of 0 forbids swapping outright.
    """

    def __init__(self, region: DiskRegion, *,
                 budget_slots: int | None = None) -> None:
        self.region = region
        self.size_slots = region.size_pages
        if budget_slots is not None and budget_slots < 0:
            raise DiskError(f"negative swap budget: {budget_slots}")
        self.budget_slots = budget_slots
        #: Holes below the frontier: start -> length, kept coalesced.
        self._holes: dict[int, int] = {}
        #: end (start+length) -> start, for O(1) coalescing.
        self._hole_ends: dict[int, int] = {}
        #: length -> min-heap of hole starts filed at that length.
        self._starts_by_length: dict[int, list[int]] = {}
        #: Keys of ``_starts_by_length``, ascending.
        self._lengths: list[int] = []
        #: Starts of holes made since the index was last brought up
        #: to date (some may have merged away since).
        self._new_holes: list[int] = []
        #: Entries across all heaps, stale ones included.
        self._index_entries = 0
        #: Everything at/after the frontier has never been used.
        self._frontier = 0
        self._allocated: set[int] = set()
        #: Highest slot ever handed out + 1; proxy for swap footprint.
        self.high_watermark = 0

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    @property
    def used_slots(self) -> int:
        """Slots currently holding swapped-out pages."""
        return len(self._allocated)

    @property
    def free_slots(self) -> int:
        """Slots available for allocation."""
        return self.size_slots - len(self._allocated)

    def is_allocated(self, slot: int) -> bool:
        """Whether ``slot`` currently holds swapped content."""
        return slot in self._allocated

    @property
    def budget_pressure(self) -> float:
        """Occupied fraction of the effective cap (budget, else region
        size) -- the node-pressure signal the cluster migrates against."""
        cap = (self.budget_slots if self.budget_slots is not None
               else self.size_slots)
        return self.used_slots / cap if cap else 0.0

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------

    def allocate_run(self, n: int) -> list[int]:
        """Allocate ``n`` slots, contiguous when possible.

        Order of preference (mirroring the kernel's cluster scan):
        the lowest coalesced hole large enough, then fresh space at the
        frontier, then piecemeal hole fragments (the decayed regime).
        """
        if n <= 0:
            raise DiskError(f"non-positive run length: {n}")
        if n > self.free_slots:
            raise DiskError("host swap area exhausted")
        if (self.budget_slots is not None
                and self.used_slots + n > self.budget_slots):
            raise DiskError(
                f"swap budget exceeded: {self.used_slots} used + {n} "
                f"requested > budget of {self.budget_slots} slots")
        best_start = self._lowest_hole(n)
        if best_start is not None:
            return self._carve(best_start, n)
        if self._frontier + n <= self.size_slots:
            start = self._frontier
            self._frontier += n
            return self._take(start, n)
        # Fragmented fallback: gather the lowest fragments one by one.
        slots: list[int] = []
        while len(slots) < n:
            slots.extend(self.allocate_run(
                min(n - len(slots), self._largest_fit(n - len(slots)))))
        return slots

    def allocate(self) -> int:
        """Allocate a single slot (lowest hole first, then frontier)."""
        return self.allocate_run(1)[0]

    def _lowest_hole(self, n: int) -> int | None:
        """Start of the lowest hole at least ``n`` slots long."""
        self._file_new_holes()
        holes = self._holes
        by_length = self._starts_by_length
        lengths = self._lengths
        best = None
        i = bisect_left(lengths, n)
        while i < len(lengths):
            length = lengths[i]
            if self._live_top(length) is None:
                del lengths[i]
                continue
            start = by_length[length][0]
            if best is None or start < best:
                best = start
            i += 1
        return best

    def _largest_fit(self, want: int) -> int:
        """Largest run length <= want available anywhere."""
        self._file_new_holes()
        lengths = self._lengths
        while lengths and self._live_top(lengths[-1]) is None:
            lengths.pop()
        best = min(lengths[-1], want) if lengths else 0
        if self._frontier < self.size_slots:
            best = max(best, min(want, self.size_slots - self._frontier))
        if best == 0:
            raise DiskError("host swap area exhausted")
        return best

    def _live_top(self, length: int) -> int | None:
        """Lowest live start filed under ``length``; drops the heap
        (the caller drops the length) when none is left."""
        heap = self._starts_by_length[length]
        holes = self._holes
        while heap and holes.get(heap[0]) != length:
            heappop(heap)
            self._index_entries -= 1
        if heap:
            return heap[0]
        del self._starts_by_length[length]
        return None

    def _file_new_holes(self) -> None:
        """Bring the length index up to date with the noted holes."""
        new_holes = self._new_holes
        if not new_holes:
            return
        holes = self._holes
        if self._index_entries + len(new_holes) > 2 * len(holes) + 64:
            # Mostly stale: rebuild from the live holes (amortized O(1)
            # per hole made).
            by_length: dict[int, list[int]] = {}
            for start, length in holes.items():
                by_length.setdefault(length, []).append(start)
            for heap in by_length.values():
                heapify(heap)
            self._starts_by_length = by_length
            self._lengths = sorted(by_length)
            self._index_entries = len(holes)
            new_holes.clear()
            return
        by_length = self._starts_by_length
        for start in new_holes:
            length = holes.get(start)
            if length is None:
                continue  # merged into its left neighbour since
            heap = by_length.get(length)
            if heap is None:
                by_length[length] = [start]
                insort(self._lengths, length)
            else:
                heappush(heap, start)
            self._index_entries += 1
        new_holes.clear()

    def _carve(self, start: int, n: int) -> list[int]:
        length = self._holes.pop(start)
        del self._hole_ends[start + length]
        if length > n:
            new_start = start + n
            self._holes[new_start] = length - n
            self._hole_ends[start + length] = new_start
            self._new_holes.append(new_start)
        return self._take(start, n)

    def _take(self, start: int, n: int) -> list[int]:
        slots = list(range(start, start + n))
        self._allocated.update(slots)
        self.high_watermark = max(self.high_watermark, start + n)
        return slots

    # ------------------------------------------------------------------
    # freeing
    # ------------------------------------------------------------------

    def free(self, slot: int) -> None:
        """Return ``slot`` to the pool, coalescing with neighbours."""
        try:
            self._allocated.remove(slot)
        except KeyError:
            raise DiskError(f"double free of swap slot {slot}") from None
        start, length = slot, 1
        # Merge with the hole ending exactly where this one starts.
        left_start = self._hole_ends.pop(slot, None)
        if left_start is not None:
            left_len = self._holes.pop(left_start)
            start = left_start
            length += left_len
        # Merge with the hole starting right after.
        right_len = self._holes.pop(slot + 1, None)
        if right_len is not None:
            del self._hole_ends[slot + 1 + right_len]
            length += right_len
        self._holes[start] = length
        self._hole_ends[start + length] = start
        self._new_holes.append(start)

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------

    def sector_of(self, slot: int) -> int:
        """Absolute physical sector where ``slot`` starts."""
        if not 0 <= slot < self.size_slots:
            raise DiskError(f"slot {slot} outside swap area")
        return self.region.sector_of_page(slot)

    def cluster_of(self, slot: int, cluster_size: int) -> range:
        """The aligned slot cluster containing ``slot``.

        Swap readahead (Linux ``page-cluster``) reads this whole aligned
        group on a fault; its usefulness depends on whether neighbouring
        slots still hold related pages.
        """
        if cluster_size <= 0:
            raise DiskError(f"non-positive cluster size: {cluster_size}")
        base = (slot // cluster_size) * cluster_size
        end = min(base + cluster_size, self.size_slots)
        return range(base, end)

    def fragmentation(self) -> float:
        """Fraction of free space below the frontier held in holes
        smaller than a typical reclaim batch (diagnostic)."""
        small = sum(v for v in self._holes.values() if v < 32)
        total = sum(self._holes.values())
        return small / total if total else 0.0
