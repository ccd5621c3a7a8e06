#!/usr/bin/env python3
"""Quickstart: one overcommitted guest, with and without VSwapper.

Builds a one-host cluster, gives a guest that believes it has 512 MB only
100 MB of actual memory, runs a sequential file read, and prints how
uncooperative swapping behaves under each configuration -- the paper's
Figure 3 scenario in a dozen lines of library code.

Run:  python examples/quickstart.py
"""

from repro import (
    Cluster,
    ClusterConfig,
    GuestConfig,
    VmConfig,
    VSwapperConfig,
    VmDriver,
)
from repro.units import mib_pages
from repro.workloads import SysbenchFileRead

#: Divide all sizes by this to keep the demo snappy.
SCALE = 4

CONFIGS = [
    ("baseline (uncooperative swap)", VSwapperConfig.off(), False),
    ("swap mapper only", VSwapperConfig.mapper_only(), False),
    ("full vswapper", VSwapperConfig.full(), False),
    ("balloon + baseline", VSwapperConfig.off(), True),
]


def run_one(label: str, vswapper: VSwapperConfig, ballooned: bool) -> None:
    cluster = Cluster(ClusterConfig())   # one host
    guest_pages = mib_pages(512 / SCALE)
    actual_pages = mib_pages(100 / SCALE)

    vm = cluster.create_vm(VmConfig(
        name="demo",
        guest=GuestConfig(
            memory_pages=guest_pages,
            kernel_reserve_pages=mib_pages(16 / SCALE),
            guest_swap_pages=mib_pages(256 / SCALE),
        ),
        vswapper=vswapper,
        resident_limit_pages=actual_pages,   # the cgroup-style grant
    ))
    vm.host.boot_guest(vm)                   # uptime history
    if ballooned:
        # A cooperative guest: the balloon tells it the truth.
        vm.host.apply_static_balloon(vm, guest_pages - actual_pages)

    vm.guest.fs.create_file("sysbench.dat", mib_pages(200 / SCALE))
    driver = VmDriver(vm, SysbenchFileRead(
        file_pages=mib_pages(200 / SCALE), iterations=1))
    cluster.run()

    counters = vm.counters
    print(f"{label:32s} runtime {driver.runtime:7.2f}s | "
          f"stale reads {counters.stale_reads:5d} | "
          f"swap sectors written {counters.swap_sectors_written:7d} | "
          f"disk ops {counters.disk_ops:5d}")


def main() -> None:
    print("Guest believes it has 512MB; the host grants 100MB.\n")
    for label, vswapper, ballooned in CONFIGS:
        run_one(label, vswapper, ballooned)
    print("\nVSwapper makes uncooperative swapping nearly as good as")
    print("cooperative ballooning -- without touching the guest.")


if __name__ == "__main__":
    main()
