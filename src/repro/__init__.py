"""repro: a full-system reproduction of VSwapper (ASPLOS 2014).

VSwapper is a guest-agnostic memory swapper for virtualized
environments (Amit, Tsafrir, Schuster).  This package reproduces the
paper as a discrete-event simulation of the whole stack: guests,
hypervisor, disk, uncooperative swapping, ballooning, and the paper's
two mechanisms -- the Swap Mapper and the False Reads Preventer.

Quickstart::

    from repro import (Cluster, ClusterConfig, VmConfig, GuestConfig,
                       VSwapperConfig, VmDriver)
    from repro.workloads import SysbenchFileRead
    from repro.units import mib_pages

    cluster = Cluster(ClusterConfig())   # one host
    vm = cluster.create_vm(VmConfig(
        guest=GuestConfig(memory_pages=mib_pages(512)),
        vswapper=VSwapperConfig.full(),
        resident_limit_pages=mib_pages(100),
    ))
    vm.guest.fs.create_file("sysbench.dat", mib_pages(200))
    driver = VmDriver(vm, SysbenchFileRead())
    cluster.run()
    print(driver.runtime, vm.counters.snapshot())
"""

from repro.cluster import Cluster
from repro.config import (
    ClusterConfig,
    DiskConfig,
    GuestConfig,
    GuestOsKind,
    HostConfig,
    HypervisorKind,
    VSwapperConfig,
    VmConfig,
)
from repro.driver import VmDriver
from repro.errors import (
    ConfigError,
    ConsistencyError,
    DiskError,
    GuestError,
    GuestOomKill,
    HostError,
    ReproError,
    SimulationError,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Cluster",
    "ClusterConfig",
    "DiskConfig",
    "HostConfig",
    "GuestConfig",
    "GuestOsKind",
    "HypervisorKind",
    "VmConfig",
    "VSwapperConfig",
    "VmDriver",
    "ReproError",
    "ConfigError",
    "SimulationError",
    "DiskError",
    "GuestError",
    "GuestOomKill",
    "HostError",
    "ConsistencyError",
]
