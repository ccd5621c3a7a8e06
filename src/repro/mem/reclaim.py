"""Generic named/anon reclaim scanning, shared by host and guest models.

Linux reclaim keeps file-backed ("named") and anonymous pages on
separate LRU lists and prefers to take file pages: they can be dropped
without write-back and re-read with effective prefetching.  The paper's
*false page anonymity* problem is precisely that in the baseline the
named list contains nothing but the hypervisor executable, so this
preference repeatedly victimizes QEMU's own code (Section 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable

from repro.errors import MemoryError_
from repro.mem.lru import ClockList
from repro.trace.collector import NULL_TRACE


@dataclass
class ScanResult:
    """Outcome of one victim-selection pass."""

    #: Chosen victim keys in eviction order: named-list picks first,
    #: then anon-list picks, then forced named-list picks.
    victims: list[Hashable] = field(default_factory=list)
    #: Entries the clock hand examined (the pages-scanned metric).
    examined: int = 0


class ReclaimScanner:
    """Two-list clock reclaim with a tunable named-page preference.

    ``scan(clock_list, want)`` runs one clock-hand pass over a list and
    returns ``(victims, examined)`` with the semantics of
    :meth:`ClockList.scan` -- referenced keys get their bit cleared and
    rotate to the tail.  The host passes a fused loop that also honours
    DMA pins and referenced-bit noise (``Vm._build_scan``); the guest
    passes ``ClockList.scan`` with its own accessed bookkeeping.  The
    escalation pass ignores referenced bits and spares only the keys
    ``unevictable`` names.
    """

    def __init__(
        self,
        scan: Callable[[ClockList, int], tuple[list, int]],
        *,
        named_fraction: float = 0.75,
        unevictable: Callable[[Hashable], bool] | None = None,
    ) -> None:
        if not 0.0 <= named_fraction <= 1.0:
            raise MemoryError_(
                f"named_fraction must be in [0, 1]: {named_fraction}")
        self.named_list = ClockList("named")
        self.anon_list = ClockList("anon")
        self.named_fraction = named_fraction
        self._unevictable = unevictable or (lambda key: False)
        self._scan = scan
        #: Trace collector plus the VM name scans are attributed to;
        #: wired by the machine for host-side scanners under ``--trace``.
        self.trace = NULL_TRACE
        self.trace_vm: str | None = None

    # -- membership maintenance --------------------------------------------

    def note_resident(self, key: Hashable, *, named: bool,
                      cold: bool = False) -> None:
        """Register a newly resident page on the appropriate list.

        ``cold=True`` queues the page at the eviction end (speculative
        readahead pages that have not yet been used).
        """
        target = self.named_list if named else self.anon_list
        if cold:
            target.add_front(key)
        else:
            target.add(key)

    def note_evicted(self, key: Hashable) -> None:
        """Drop a page from whichever list holds it."""
        self.named_list.remove(key)
        self.anon_list.remove(key)

    def change_kind(self, key: Hashable, *, named: bool) -> None:
        """Move a resident page between lists (e.g. a Mapper COW break
        turns a named page anonymous)."""
        self.note_evicted(key)
        self.note_resident(key, named=named)

    def is_named(self, key: Hashable) -> bool:
        """Whether the resident page currently sits on the named list."""
        return key in self.named_list

    @property
    def resident(self) -> int:
        """Pages on either list."""
        return len(self.named_list) + len(self.anon_list)

    # -- victim selection ----------------------------------------------------

    def pick_victims(self, want: int) -> ScanResult:
        """Select up to ``want`` victims, preferring named pages.

        The named list is scanned for ``named_fraction`` of the batch
        (all of it if the anon list is empty) and the anon list covers
        the remainder; any shortfall falls back to the other list.
        """
        if want <= 0:
            return ScanResult()
        result = ScanResult()

        from_named = want if not len(self.anon_list) else max(
            1, int(round(want * self.named_fraction)))
        from_named = min(from_named, want)

        victims = result.victims
        scan = self._scan
        named_victims, examined = scan(
            self.named_list, min(from_named, len(self.named_list)))
        result.examined += examined
        victims += named_victims

        remaining = want - len(victims)
        if remaining > 0 and len(self.anon_list):
            anon_victims, examined = scan(self.anon_list, remaining)
            result.examined += examined
            victims += anon_victims

        # Shortfall: escalate back to the named list without the
        # second-chance courtesy (reclaim priority escalation).  Only
        # unevictable (DMA-pinned) pages keep their protection.
        remaining = want - len(victims)
        if remaining > 0 and len(self.named_list):
            forced, examined = self.named_list.scan(
                remaining, self._unevictable)
            result.examined += examined
            victims += forced
        if self.trace.enabled:
            self.trace.emit(
                "reclaim.scan", vm=self.trace_vm,
                examined=result.examined, victims=len(result.victims))
        return result
