#!/usr/bin/env python3
"""Pathology inspector: decompose *why* uncooperative swapping is slow.

Runs one overcommitted workload and attributes the observable damage to
the paper's five named pathologies (Section 3), then shows which of
them each VSwapper component eliminates -- a diagnosis tool built on
the library's counters.

Run:  python examples/pathology_inspector.py
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
from repro.workloads import SysbenchThenAlloc

#: Divide all sizes by this to keep the demo snappy.
SCALE = 4


def run_config(vswapper: VSwapperConfig):
    cluster = Cluster(ClusterConfig())
    vm = cluster.create_vm(VmConfig(
        name="probe",
        guest=GuestConfig(
            memory_pages=mib_pages(512 / SCALE),
            kernel_reserve_pages=mib_pages(16 / SCALE),
            guest_swap_pages=mib_pages(256 / SCALE),
        ),
        vswapper=vswapper,
        resident_limit_pages=mib_pages(100 / SCALE),
    ))
    vm.host.boot_guest(vm)
    vm.guest.fs.create_file("sysbench.dat", mib_pages(200 / SCALE))
    workload = SysbenchThenAlloc(
        file_pages=mib_pages(200 / SCALE),
        alloc_pages=mib_pages(150 / SCALE))
    driver = VmDriver(vm, workload)
    cluster.run()
    return driver, vm


def report(title: str, vswapper: VSwapperConfig) -> None:
    driver, vm = run_config(vswapper)
    c = vm.counters
    silent_pct = (100 * c.silent_swap_writes * 8
                  / max(1, c.swap_sectors_written))
    print(f"--- {title} "
          f"({'crashed' if driver.crashed else f'{driver.runtime:.1f}s'})")
    print(f"  silent swap writes    : {c.silent_swap_writes:6d} pages "
          f"({silent_pct:.0f}% of swap write traffic)")
    print(f"  stale swap reads      : {c.stale_reads:6d}")
    print(f"  false swap reads      : {c.false_reads:6d}")
    print(f"  decayed sequentiality : {c.guest_context_faults:6d} "
          f"major guest faults")
    print(f"  false page anonymity  : {c.hypervisor_code_faults:6d} "
          f"hypervisor-code refaults")
    if c.preventer_remaps or c.mapper_discards:
        print(f"  [vswapper at work]    : {c.mapper_discards} discards, "
              f"{c.preventer_remaps} preventer remaps, "
              f"{c.mapper_invalidations} consistency invalidations")
    print()


def main() -> None:
    print("Attribution of uncooperative-swapping damage "
          "(Section 3 pathologies)\n")
    report("baseline", VSwapperConfig.off())
    report("mapper only (kills silent writes, stale reads, decay, "
           "anonymity)", VSwapperConfig.mapper_only())
    report("full vswapper (adds the false-read preventer)",
           VSwapperConfig.full())


if __name__ == "__main__":
    main()
