"""Pluggable swap backends: where host-swapped pages actually go.

The hypervisor's swap path is slot-addressed; a :class:`SwapBackend`
decides what a slot-run store/load costs.  ``DiskSwapBackend`` (the
default) reproduces the paper's shared-HDD path bit-for-bit; the other
backends answer ROADMAP item 3 -- which of the paper's root causes
survive when swap is served by flash, compressed RAM, or far memory.

See DESIGN.md section 14 for the interface contract, the tiering
policy rules, and the compressed-capacity unit conventions.
"""

from repro.swapback.base import SwapBackend, SwapBackendStats
from repro.swapback.devices import FlashBackend, RemoteBackend
from repro.swapback.disk import DiskSwapBackend
from repro.swapback.factory import build_swap_backend
from repro.swapback.tiered import TieredBackend
from repro.swapback.zram import CompressedBackend

__all__ = [
    "CompressedBackend",
    "DiskSwapBackend",
    "FlashBackend",
    "RemoteBackend",
    "SwapBackend",
    "SwapBackendStats",
    "TieredBackend",
    "build_swap_backend",
]
