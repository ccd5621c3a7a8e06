#!/usr/bin/env python3
"""Balloon responsiveness under a demand spike (paper Section 2.3).

A quiet guest is ballooned down by the manager; then its workload
suddenly builds a large working set.  The example traces, over virtual
time, the balloon size against the guest's demand -- showing the lag
window during which the host must fall back on uncooperative swapping,
and how much that window costs with and without VSwapper.

Run:  python examples/balloon_vs_spike.py
"""

from repro import (
    Cluster,
    ClusterConfig,
    GuestConfig,
    HostConfig,
    VmConfig,
    VSwapperConfig,
    VmDriver,
)
from repro.balloon import BalloonManager, BalloonPolicy, ManagerConfig
from repro.config import HostNodeConfig
from repro.experiments.runner import run_to_completion
from repro.metrics.timeline import Timeline
from repro.sim.ops import Alloc, Compute, Touch
from repro.units import mib_pages
from repro.workloads.base import Workload

#: Divide all sizes by this to keep the demo snappy.
SCALE = 8


class WarmFileServer(Workload):
    """Fills its page cache from a file, then serves lightly.

    Its memory is mostly *idle clean cache* -- exactly what a balloon
    manager wants to reclaim when a neighbour spikes.
    """

    name = "warm-file-server"

    def __init__(self, file_pages: int, seconds: float):
        self.file_pages = file_pages
        self.seconds = seconds

    def operations(self):
        from repro.sim.ops import FileRead
        offset = 0
        while offset < self.file_pages:
            length = min(256, self.file_pages - offset)
            yield FileRead("corpus", offset, length)
            offset += length
        elapsed = 0.0
        while elapsed < self.seconds:
            yield FileRead("corpus", 0, min(64, self.file_pages))
            yield Compute(0.5)
            elapsed += 0.5


class QuietThenSpike(Workload):
    """Idle for a while, then rapidly build a big table."""

    name = "quiet-then-spike"
    threads = 2

    def __init__(self, idle_seconds: float, table_pages: int):
        self.idle_seconds = idle_seconds
        self.table_pages = table_pages

    def operations(self):
        elapsed = 0.0
        while elapsed < self.idle_seconds:
            yield Compute(0.5)
            elapsed += 0.5
        yield Alloc("tables", self.table_pages)
        offset = 0
        while offset < self.table_pages:
            length = min(256, self.table_pages - offset)
            yield Touch("tables", offset, length, write=True)
            yield Compute(0.05)
            offset += length
        for _ in range(10):
            yield Touch("tables", 0, min(1024, self.table_pages))
            yield Compute(0.3)


def run(vswapper: VSwapperConfig):
    cluster = Cluster(ClusterConfig(hosts=(HostNodeConfig(host=HostConfig(
        total_memory_pages=mib_pages(1600 / SCALE),
        swap_size_pages=mib_pages(8192 / SCALE),
    )),)))
    # A neighbour VM occupies most of the host.
    neighbour = cluster.create_vm(VmConfig(
        name="neighbour",
        guest=GuestConfig(memory_pages=mib_pages(1536 / SCALE),
                          kernel_reserve_pages=mib_pages(16 / SCALE),
                          guest_swap_pages=mib_pages(512 / SCALE)),
        vswapper=vswapper,
        image_size_pages=mib_pages(4096 / SCALE),
    ))
    neighbour.host.boot_guest(neighbour, fraction=0.4)
    # The neighbour serves a warm file cache; its balloon driver stays
    # responsive through its (light) activity.
    neighbour.guest.fs.create_file(
        "corpus", mib_pages(1200 / SCALE))
    VmDriver(neighbour, WarmFileServer(
        file_pages=mib_pages(1200 / SCALE), seconds=400.0))

    vm = cluster.create_vm(VmConfig(
        name="spiker",
        guest=GuestConfig(memory_pages=mib_pages(1024 / SCALE),
                          kernel_reserve_pages=mib_pages(16 / SCALE),
                          guest_swap_pages=mib_pages(512 / SCALE)),
        vswapper=vswapper,
        image_size_pages=mib_pages(4096 / SCALE),
    ))
    vm.host.boot_guest(vm, fraction=0.3)

    workload = QuietThenSpike(
        idle_seconds=30.0 / SCALE * 8,
        table_pages=mib_pages(700 / SCALE))
    driver = VmDriver(vm, workload)
    BalloonManager(vm.host, ManagerConfig(
        poll_interval=5.0,
        policy=BalloonPolicy(host_pressure_evictions=64)))

    timeline = Timeline()
    timeline.register(
        "balloon", lambda: neighbour.guest.balloon_size)
    timeline.register("demand", lambda: vm.guest.committed_pages())
    timeline.register(
        "host_swapins", lambda: vm.counters.guest_context_faults)
    cluster.engine.add_periodic(
        2.0, lambda: timeline.sample_all(cluster.now))
    run_to_completion(cluster.engine, [driver], slice_seconds=30.0)
    return driver, cluster, timeline


def main() -> None:
    for label, vswapper in (("baseline fallback", VSwapperConfig.off()),
                            ("vswapper fallback", VSwapperConfig.full())):
        driver, cluster, timeline = run(vswapper)
        times, balloon = timeline.series("balloon")
        _t, demand = timeline.series("demand")
        totals = cluster.aggregate_counters()
        print(f"=== {label}: spike workload finished in "
              f"{driver.runtime:.1f}s; machine-wide "
              f"{totals['swap_sectors_written']} swap sectors written, "
              f"{totals['guest_context_faults']} major faults")
        print("  time   neighbour-balloon[p]  spiker-demand[p]")
        for i in range(0, len(times), max(1, len(times) // 10)):
            print(f"  {times[i]:5.0f}  {balloon[i]:10.0f} "
                  f" {demand[i]:9.0f}")
        print()
    print("The balloon trails the spike; VSwapper cheapens the window.")


if __name__ == "__main__":
    main()
