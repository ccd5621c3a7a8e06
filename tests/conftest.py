"""Shared fixtures: small one-host clusters, VMs, and workload helpers."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, Host
from repro.config import (
    ClusterConfig,
    FaultConfig,
    GuestConfig,
    HostConfig,
    HostNodeConfig,
    VmConfig,
    VSwapperConfig,
)
from repro.units import mib_pages


def small_cluster_config(*, seed: int = 1, faults: FaultConfig | None = None,
                         **host_overrides) -> ClusterConfig:
    """A one-host cluster config sized for fast tests."""
    host_defaults = dict(
        total_memory_pages=mib_pages(256),
        swap_size_pages=mib_pages(512),
        hypervisor_code_pages=16,
        code_pages_per_io=2,
        code_pages_per_fault=1,
        reclaim_noise=0.0,   # determinism unless a test wants noise
    )
    host_defaults.update(host_overrides)
    return ClusterConfig(
        hosts=(HostNodeConfig(host=HostConfig(**host_defaults)),),
        seed=seed, faults=faults)


def small_guest_config(**overrides) -> GuestConfig:
    """A guest sized for fast tests (16 MiB of believed memory)."""
    defaults = dict(
        memory_pages=mib_pages(16),
        kernel_reserve_pages=mib_pages(1),
        guest_swap_pages=mib_pages(8),
        allocator_window=1,  # strict LIFO: deterministic tests
    )
    defaults.update(overrides)
    return GuestConfig(**defaults)


def small_vm_config(*, vswapper: VSwapperConfig | None = None,
                    resident_limit_mib: float | None = None,
                    guest: GuestConfig | None = None,
                    name: str = "vm0") -> VmConfig:
    """A VM config matching :func:`small_guest_config`."""
    return VmConfig(
        name=name,
        guest=guest or small_guest_config(),
        vswapper=vswapper or VSwapperConfig.off(),
        image_size_pages=mib_pages(64),
        resident_limit_pages=(
            None if resident_limit_mib is None
            else mib_pages(resident_limit_mib)),
    )


@pytest.fixture
def cluster() -> Cluster:
    """A small, deterministic one-host cluster."""
    return Cluster(small_cluster_config())


@pytest.fixture
def host(cluster: Cluster) -> Host:
    """The cluster's only host."""
    return cluster.hosts[0]


@pytest.fixture
def vm(cluster: Cluster):
    """A small baseline VM with no resident limit."""
    return cluster.create_vm(small_vm_config())


@pytest.fixture
def tight_vm(cluster: Cluster):
    """A VM whose host grant (4 MiB) is far below its belief (16 MiB)."""
    return cluster.create_vm(small_vm_config(resident_limit_mib=4))


@pytest.fixture
def vswapper_vm(cluster: Cluster):
    """A tight VM running the full VSwapper."""
    return cluster.create_vm(small_vm_config(
        vswapper=VSwapperConfig.full(), resident_limit_mib=4))
