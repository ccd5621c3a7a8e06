"""Guest anonymous memory: named regions of process heap/stack pages.

Pages materialize lazily: committing a region reserves nothing, and the
first touch performs demand-zero allocation -- a whole-page overwrite,
which is one of the guest behaviours that trigger *false swap reads*
when the underlying frame was swapped out by the host (Section 3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import GuestError


class PageLocation(enum.Enum):
    """Where an anonymous page's content currently lives."""

    UNMATERIALIZED = "unmaterialized"
    MEMORY = "memory"
    GUEST_SWAP = "guest_swap"


@dataclass
class AnonPageState:
    """Location of one page of a region."""

    location: PageLocation = PageLocation.UNMATERIALIZED
    #: GPA when in memory, guest swap slot when swapped.
    where: int = -1


class AnonRegion:
    """A committed anonymous mapping, addressed by page index."""

    def __init__(self, name: str, npages: int) -> None:
        if npages <= 0:
            raise GuestError(f"region {name!r} needs at least one page")
        self.name = name
        self.npages = npages
        self.pages = [AnonPageState() for _ in range(npages)]

    def resident_pages(self) -> int:
        """Pages of this region currently held in guest memory."""
        return sum(
            1 for p in self.pages if p.location is PageLocation.MEMORY)


class GuestAnonMemory:
    """All anonymous regions plus the GPA reverse map."""

    def __init__(self) -> None:
        self._regions: dict[str, AnonRegion] = {}
        #: gpa -> (region name, page index) for in-memory anon pages.
        self._by_gpa: dict[int, tuple[str, int]] = {}

    def commit(self, name: str, npages: int) -> AnonRegion:
        """Create a region; committing is free of memory until touched."""
        if name in self._regions:
            raise GuestError(f"region exists: {name!r}")
        region = AnonRegion(name, npages)
        self._regions[name] = region
        return region

    def region(self, name: str) -> AnonRegion:
        """Look up a region by name."""
        try:
            return self._regions[name]
        except KeyError:
            raise GuestError(f"no such region: {name!r}") from None

    def has_region(self, name: str) -> bool:
        """Whether the region exists."""
        return name in self._regions

    def place_in_memory(self, name: str, index: int, gpa: int) -> None:
        """Record that page ``index`` of ``name`` now lives at ``gpa``."""
        self.place_run(name, (index,), (gpa,))

    def place_run(self, name: str, indices, gpas) -> None:
        """Record that page ``indices[i]`` of ``name`` now lives at
        ``gpas[i]``, for each ``i``."""
        region = self.region(name)
        pages = region.pages
        by_gpa = self._by_gpa
        memory = PageLocation.MEMORY
        for index, gpa in zip(indices, gpas):
            state = pages[index]
            if state.location is memory:
                raise GuestError(
                    f"page {index} of {name!r} already in memory")
            state.location = memory
            state.where = gpa
            by_gpa[gpa] = (name, index)

    def move_to_swap(self, gpa: int, slot: int) -> None:
        """Record guest swap-out of the anon page at ``gpa``."""
        name, index = self.owner_of(gpa)
        state = self._regions[name].pages[index]
        state.location = PageLocation.GUEST_SWAP
        state.where = slot
        del self._by_gpa[gpa]

    def owner_of(self, gpa: int) -> tuple[str, int]:
        """(region, index) owning an in-memory anon GPA."""
        try:
            return self._by_gpa[gpa]
        except KeyError:
            raise GuestError(f"GPA {gpa:#x} is not an anon page") from None

    def is_anon_gpa(self, gpa: int) -> bool:
        """Whether ``gpa`` currently holds an anonymous page."""
        return gpa in self._by_gpa

    def release_region(self, name: str) -> tuple[list[int], list[int]]:
        """Destroy a region; returns (freed GPAs, freed guest-swap slots)."""
        region = self._regions.pop(name, None)
        if region is None:
            raise GuestError(f"no such region: {name!r}")
        gpas: list[int] = []
        slots: list[int] = []
        for state in region.pages:
            if state.location is PageLocation.MEMORY:
                gpas.append(state.where)
                del self._by_gpa[state.where]
            elif state.location is PageLocation.GUEST_SWAP:
                slots.append(state.where)
        return gpas, slots

    def resident_pages(self) -> int:
        """Anon pages currently in guest memory, across regions."""
        return len(self._by_gpa)

    def region_names(self) -> list[str]:
        """All region names."""
        return list(self._regions)
