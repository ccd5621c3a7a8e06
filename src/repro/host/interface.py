"""The guest <-> host service boundary, as an explicit protocol.

:class:`repro.guest.kernel.GuestKernel` drives its host through exactly
these entry points -- the complete set of guest actions a hypervisor
can observe (and, for the Mapper, the complete set it may interpose
on).  :class:`repro.host.hypervisor.Hypervisor` implements it; tests
assert conformance so the boundary cannot silently drift.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.mem.page import PageContent
from repro.sim.ops import WritePattern


@runtime_checkable
class HostServices(Protocol):
    """Everything a guest kernel may ask of its host."""

    def touch_page(self, vm, gpa: int, *, write: bool = False,
                   new_content: PageContent | None = None,
                   context: str = "guest") -> None:
        """A guest CPU load or store to ``gpa``."""
        ...

    def overwrite_page(self, vm, gpa: int, new_content: PageContent,
                       pattern: WritePattern,
                       context: str = "guest") -> None:
        """The guest overwrites the whole page, old content unwanted."""
        ...

    def overwrite_run(self, vm, gpas, contents, pattern: WritePattern,
                      guest_costs: tuple[float, ...] = (),
                      context: str = "guest") -> None:
        """:meth:`overwrite_page` for each ``(gpa, content)`` pair in
        order, adding the guest's per-page CPU charges ``guest_costs``
        after the host's own."""
        ...

    def virtio_read(self, vm, transfers, context: str = "host") -> None:
        """Explicit virtual disk read into guest pages."""
        ...

    def virtio_write(self, vm, transfers, sync: bool = False) -> None:
        """Explicit virtual disk write from guest pages."""
        ...

    def balloon_pin(self, vm, gpas: list[int]) -> None:
        """The balloon driver pinned these pages for the host."""
        ...

    def balloon_unpin(self, vm, gpas: list[int]) -> None:
        """The balloon driver released these pages to the guest."""
        ...

    def page_needs_zeroing(self, vm, gpa: int) -> bool:
        """Whether a free page holds stale non-zero bytes (zero-page
        thread probe)."""
        ...
