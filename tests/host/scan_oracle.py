"""Layered reference for the host's fused reclaim scan.

``Vm._build_scan`` inlines the host's referenced probe into the clock
loop.  This module keeps the readable version, one predicate per layer,
so tests can run ``ClockList.scan(want, layered_probe(...))`` beside the
fused loop and demand identical results.
"""

from __future__ import annotations

from typing import Callable, Hashable

from repro.errors import HostError
from repro.host.vm import CODE_KEY


def dma_pinned(vm, key: Hashable) -> bool:
    """Whether a scanner key is pinned for in-flight DMA."""
    return type(key) is not tuple and key in vm.io_pinned


def referenced(vm, key: Hashable) -> bool:
    """Test-and-clear the accessed bit behind a scanner key.

    Code-page keys ask QEMU; guest GPAs ask the EPT, and a GPA that is
    not present (or lies beyond the table) was not referenced.
    """
    if type(key) is tuple:
        if key[0] != CODE_KEY:
            raise HostError(f"unknown scanner key: {key!r}")
        return vm.qemu.referenced(key[1])
    if vm.ept.is_present(key):
        return vm.ept.test_and_clear_accessed(key)
    return False


def layered_probe(vm, noise: float, rng) -> Callable[[Hashable], bool]:
    """The host's referenced probe, composed layer by layer.

    A DMA-pinned key is referenced without an RNG draw; every other key
    draws once (``rng.chance(noise)``, skipped entirely at noise 0)
    before its accessed bit is tested and cleared.
    """
    def probe(key: Hashable) -> bool:
        if dma_pinned(vm, key):
            return True
        if noise > 0.0 and rng.chance(noise):
            return True
        return referenced(vm, key)
    return probe
