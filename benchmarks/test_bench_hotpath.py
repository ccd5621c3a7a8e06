"""Hot-path micro-benchmarks: the primitives the perf rewrite targets.

Figure-level benchmarks (``BENCH_fig09.json`` et al.) tell you *that*
a cell got faster; these isolate the inner-loop primitives so a
speedup -- or a regression -- is attributable to a layer: a single
EPT fault (hypervisor map path), one clock-scan examination (reclaim),
a swap-out batch (eviction + swap write path), and a disk
submit/complete round trip (device model).

Each primitive is timed with a best-of-rounds loop over fresh state
(per-op seconds = loop wall time / operations), the whole measurement
running once under the suite's benchmark timer like every other
bench.  Results accumulate into ``BENCH_hotpath.json`` beside the
figure timings, stamped with interpreter + platform like
``BENCH_<figure>.json`` so CI never diffs apples against oranges.
"""

from __future__ import annotations

import json
import platform
import time

import pytest

from benchmarks.conftest import BENCH_SCALE, RESULTS_DIR, run_once
from repro.cluster import Cluster
from repro.disk.device import DiskDevice
from repro.disk.latency import HddLatencyModel
from repro.sim.clock import Clock
from tests.conftest import small_cluster_config, small_vm_config

#: Timing repeats per primitive; the best round is recorded (the other
#: rounds absorb allocator warm-up and scheduler noise).
ROUNDS = 3

#: Operations per timing round, scaled down like the figures are.
OPS = max(256, 4096 // BENCH_SCALE)

HOTPATH_JSON = RESULTS_DIR / "BENCH_hotpath.json"


@pytest.fixture(scope="module")
def hotpath_payload():
    """Accumulates per-primitive timings; written once at module end."""
    payload: dict = {
        "suite": "hotpath",
        "scale": BENCH_SCALE,
        "ops": {},
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }
    yield payload
    RESULTS_DIR.mkdir(exist_ok=True)
    HOTPATH_JSON.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _best_of(measure) -> dict:
    """Run ``measure()`` (returns (elapsed, ops)) ROUNDS times; report
    the best round as per-op seconds."""
    best = None
    for _ in range(ROUNDS):
        elapsed, ops = measure()
        per_op = elapsed / ops
        if best is None or per_op < best["seconds_per_op"]:
            best = {"seconds_per_op": per_op, "ops": ops,
                    "round_seconds": elapsed}
    return best


def _fresh_vm(*, resident_limit_mib=None):
    cluster = Cluster(small_cluster_config())
    return cluster.create_vm(
        small_vm_config(resident_limit_mib=resident_limit_mib))


def test_bench_ept_fault(benchmark, hotpath_payload):
    """First-touch EPT fault: allocate a frame, map, charge the cost."""

    def measure():
        vm = _fresh_vm()
        touch = vm.host.hypervisor.touch_page
        start = time.perf_counter()
        for gpa in range(OPS):
            touch(vm, gpa, True)
        return time.perf_counter() - start, OPS

    result = run_once(benchmark, lambda: _best_of(measure))
    hotpath_payload["ops"]["ept_fault"] = result
    assert result["seconds_per_op"] > 0


def test_bench_clock_scan_step(benchmark, hotpath_payload):
    """One clock-hand examination (test-and-clear + rotate/take)."""

    def measure():
        vm = _fresh_vm()
        for gpa in range(OPS):
            vm.host.hypervisor.touch_page(vm, gpa, True)
        # Every page's accessed bit is set, so the scan rotates the
        # whole list once before taking victims: examined >> victims.
        scanner = vm.scanner
        start = time.perf_counter()
        outcome = scanner.pick_victims(OPS // 8)
        return time.perf_counter() - start, outcome.examined

    result = run_once(benchmark, lambda: _best_of(measure))
    hotpath_payload["ops"]["clock_scan_step"] = result
    assert result["seconds_per_op"] > 0


def test_bench_swap_out_batch(benchmark, hotpath_payload):
    """Over-limit touch: batched eviction + uncooperative swap write."""
    batch = OPS // 4

    def measure():
        vm = _fresh_vm(resident_limit_mib=2)
        limit = vm.resident_limit
        touch = vm.host.hypervisor.touch_page
        for gpa in range(limit):
            touch(vm, gpa, True)
        start = time.perf_counter()
        for gpa in range(limit, limit + batch):
            touch(vm, gpa, True)
        return time.perf_counter() - start, batch

    result = run_once(benchmark, lambda: _best_of(measure))
    hotpath_payload["ops"]["swap_out_batch"] = result
    assert result["seconds_per_op"] > 0


def test_bench_disk_submit_complete(benchmark, hotpath_payload):
    """Device-model round trip: submit an async write, track the head,
    settle the completion time."""

    def measure():
        clock = Clock()
        disk = DiskDevice(
            clock, HddLatencyModel(bandwidth_bytes_per_sec=100e6,
                                   per_request_overhead=0.0))
        write = disk.write_async
        start = time.perf_counter()
        for i in range(OPS):
            write(i * 8, 8)
        disk.quiesce()
        return time.perf_counter() - start, OPS

    result = run_once(benchmark, lambda: _best_of(measure))
    hotpath_payload["ops"]["disk_submit_complete"] = result
    assert result["seconds_per_op"] > 0
