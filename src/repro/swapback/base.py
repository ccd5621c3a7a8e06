"""The swap-backend interface.

A :class:`SwapBackend` is *where swapped pages go*: the device (or
memory tier) behind the host's swap-slot address space.  The slot
allocator (:class:`~repro.disk.swaparea.HostSwapArea`) stays the
hypervisor's -- backends only receive slot-addressed store/load/free
requests and answer with stalls, so the paper's slot-layout effects
(decayed sequentiality) are preserved no matter what device serves the
traffic.

The contract, in the hypervisor's own call order:

* :meth:`~SwapBackend.store` -- a flushed write-back run of ``npages``
  contiguous slots; returns the *throttle* (write-back backlog) stall.
* :meth:`~SwapBackend.load` -- a synchronous swap-in read spanning
  ``npages`` contiguous slots; returns the stall the faulting guest
  waits out.
* :meth:`~SwapBackend.load_async` -- the window-expiry merge read: the
  request occupies the device but nobody waits.
* :meth:`~SwapBackend.note_free` -- a slot was released.  Only
  capacity-tracking backends care; ``tracks_slots`` is False for
  slot-oblivious devices so the reclaim hot path can skip the call.

Hosts whose node config leaves ``swap_backend`` unset use the run
context's backend kind (:class:`~repro.context.RunContext`), which the
executor narrows to each cell's ``CellSpec.backend``, so pool workers
rebuild the same backend a serial run would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import SwapBackendConfig, swap_backend_config
from repro.context import current_context
from repro.trace.collector import NULL_TRACE


@dataclass
class SwapBackendStats:
    """Per-backend operation counters (one instance per backend)."""

    stores: int = 0
    loads: int = 0
    pages_stored: int = 0
    pages_loaded: int = 0
    #: Device-time totals (seconds of stall handed back to callers).
    store_seconds: float = 0.0
    load_seconds: float = 0.0
    #: CPU charged by the compressed tier (compress/decompress).
    cpu_seconds: float = 0.0
    #: Tiering policy actions (TieredBackend only).
    promotes: int = 0
    demotes: int = 0
    #: Injected backend faults absorbed (remote timeouts, zram stalls).
    remote_timeouts: int = 0
    compressed_stalls: int = 0
    #: Extra per-backend gauges (occupancy snapshots etc.).
    extra: dict = field(default_factory=dict)

    def snapshot(self) -> dict:
        """JSON-ready copy of every non-zero counter."""
        doc = {
            "stores": self.stores, "loads": self.loads,
            "pages_stored": self.pages_stored,
            "pages_loaded": self.pages_loaded,
            "store_seconds": self.store_seconds,
            "load_seconds": self.load_seconds,
            "cpu_seconds": self.cpu_seconds,
            "promotes": self.promotes, "demotes": self.demotes,
            "remote_timeouts": self.remote_timeouts,
            "compressed_stalls": self.compressed_stalls,
        }
        doc.update(self.extra)
        return doc


class SwapBackend:
    """Base class: the slot-addressed store/load interface."""

    #: Backend kind tag (matches ``SwapBackendConfig.kind``).
    kind: str = "?"
    #: Whether the backend keeps per-slot state and therefore needs
    #: :meth:`note_free` calls.  False lets the hypervisor's reclaim
    #: hot path skip the notification entirely.
    tracks_slots: bool = False

    def __init__(self) -> None:
        self.stats = SwapBackendStats()
        #: Trace collector; the owning Host swaps in a live one under
        #: ``--trace``.
        self.trace = NULL_TRACE

    # ------------------------------------------------------------------
    # the hypervisor-facing contract
    # ------------------------------------------------------------------

    def store(self, first_slot: int, npages: int) -> float:
        """Write ``npages`` contiguous slots; returns the throttle stall."""
        raise NotImplementedError

    def load(self, first_slot: int, npages: int) -> float:
        """Read ``npages`` contiguous slots; returns the sync stall."""
        raise NotImplementedError

    def load_async(self, first_slot: int, npages: int) -> None:
        """Read without a waiter (merge-on-expiry path)."""
        self.load(first_slot, npages)

    def note_free(self, slot: int) -> None:
        """A slot was released.  Must tolerate slots that were never
        stored: buffered swap-outs can be cancelled before any flush
        reaches the backend."""

    # ------------------------------------------------------------------
    # per-page hooks (how TieredBackend composes tiers)
    # ------------------------------------------------------------------

    def fits(self, slot: int) -> bool:
        """Whether ``slot``'s page fits right now (unbounded: always)."""
        return True

    def store_page(self, slot: int) -> float:
        """One-page store, raw cost, no trace (tier-internal traffic)."""
        return self.store(slot, 1)

    def load_page(self, slot: int) -> float:
        """One-page load, raw cost, no trace (tier-internal traffic)."""
        return self.load(slot, 1)

    def drop(self, slot: int) -> None:
        """Forget a slot without I/O (demotion/promotion source side)."""

    # ------------------------------------------------------------------
    # signals
    # ------------------------------------------------------------------

    @property
    def pressure(self) -> float:
        """Occupied fraction of the backend's own capacity (0 for
        unbounded devices).  Feeds the node-pressure signal next to the
        swap-slot budget."""
        return 0.0

    def occupancy(self) -> dict:
        """Diagnostic occupancy snapshot (per-tier for composites)."""
        return {}


def default_swap_backend() -> SwapBackendConfig | None:
    """The run context's backend config hosts fall back to (None = disk)."""
    kind = current_context().swap_backend
    return None if kind is None else swap_backend_config(kind)
