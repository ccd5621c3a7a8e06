"""Cluster test helpers: small nodes and synchronous page loaders."""

from __future__ import annotations

from repro.config import HostConfig, HostNodeConfig
from repro.units import mib_pages


def small_node(name: str = "node0", *,
               overcommit_ratio: float | None = None,
               swap_budget_pages: int | None = None,
               pressure_threshold: float = 0.9,
               **host_overrides) -> HostNodeConfig:
    """One cluster node sized for fast tests (matches
    :func:`tests.conftest.small_cluster_config`)."""
    host_defaults = dict(
        total_memory_pages=mib_pages(256),
        swap_size_pages=mib_pages(512),
        hypervisor_code_pages=16,
        code_pages_per_io=2,
        code_pages_per_fault=1,
        reclaim_noise=0.0,
    )
    host_defaults.update(host_overrides)
    return HostNodeConfig(
        name=name,
        host=HostConfig(**host_defaults),
        overcommit_ratio=overcommit_ratio,
        swap_budget_pages=swap_budget_pages,
        pressure_threshold=pressure_threshold,
    )


def fill_to_limit(vm, *, start_gpa: int = 0x100, extra: int = 0) -> None:
    """Touch pages on ``vm``'s current host until it sits at its
    resident limit plus ``extra`` evictions' worth of overflow."""
    for i in range(vm.resident_limit + extra):
        vm.host.hypervisor.touch_page(vm, start_gpa + i, write=True)
