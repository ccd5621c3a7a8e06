"""Run-granular whole-page overwrites against their per-page oracle.

``Hypervisor.overwrite_run``, ``Hypervisor.balloon_pin`` and
``GuestKernel._alloc_gpas`` replace loops that handled one page at a
time.  Each property here builds twin
machines, drives them into the same randomly chosen state, applies the
run to one twin and the per-page reference from
:mod:`tests.host.overwrite_oracle` to the other, and demands the two
agree on every piece of state the simulator keeps -- EPT bits, page
contents, clock-list order, swap slots, frames, counters, RNG state
and the ``costs`` floats, compared with exact ``==``.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.config import VSwapperConfig
from repro.errors import GuestOomKill, ReproError
from repro.guest.kernel import Transfer
from repro.mem.page import ZERO, AnonContent
from repro.sim.ops import WritePattern
from tests.conftest import (
    small_guest_config,
    small_cluster_config,
    small_vm_config,
)
from tests.host import overwrite_oracle

#: GPAs the setup touches, reads into, or leaves fresh.
TOUCHED = range(0x100, 0x100 + 640)
IMAGE_READ = range(0x500, 0x500 + 96)
FRESH = range(0x800, 0x800 + 256)

PATTERNS = (WritePattern.FULL_SEQUENTIAL, WritePattern.PARTIAL,
            WritePattern.SCATTERED)


@dataclasses.dataclass(frozen=True)
class Scenario:
    """How to build one twin and which run to apply to it."""

    vswapper: str
    #: Resident limit in MiB, or None to rely on host frames instead.
    limit_mib: float | None
    #: Host frames (small values put the global pool under pressure).
    host_frames: int
    noise: float
    hardware_dirty_bit: bool
    preventer_max_pages: int
    touched: int
    swap_ins: tuple[int, ...]
    partial: tuple[int, ...]
    flush: bool
    expire: bool
    #: Where the run's pages come from: "mixed" picks from every range
    #: the setup used, "fresh" only from never-touched GPAs, "backed"
    #: from pages whose old content still exists after the setup.
    run_from: str
    run: tuple[int, ...]
    zero_mask: tuple[bool, ...]
    pattern: WritePattern
    guest_costs: tuple[float, ...]


def _vswapper_config(kind: str, max_pages: int) -> VSwapperConfig:
    if kind == "off":
        return VSwapperConfig.off()
    if kind == "mapper":
        return VSwapperConfig.mapper_only()
    return dataclasses.replace(VSwapperConfig.full(),
                               preventer_max_pages=max_pages)


def _build(sc: Scenario):
    """A cluster in the scenario's state, and the VM under test."""
    cluster = Cluster(small_cluster_config(
        total_memory_pages=sc.host_frames, reclaim_noise=sc.noise,
        hardware_dirty_bit=sc.hardware_dirty_bit))
    host = cluster.hosts[0]
    vm = cluster.create_vm(small_vm_config(
        vswapper=_vswapper_config(sc.vswapper, sc.preventer_max_pages),
        resident_limit_mib=sc.limit_mib))
    neighbour = cluster.create_vm(small_vm_config(name="vm1"))
    hyp = host.hypervisor
    for i in range(48):
        hyp.touch_page(neighbour, 0x100 + i, True, AnonContent(-1 - i))
    for i, gpa in enumerate(TOUCHED[:sc.touched]):
        hyp.touch_page(vm, gpa, True, AnonContent(i + 1))
    # Image-backed pages: tracked by a Mapper, then pushed out again
    # (discarded) by the touches that follow.
    hyp.virtio_read(vm, [Transfer(block, gpa)
                         for block, gpa in enumerate(IMAGE_READ)])
    for i, gpa in enumerate(TOUCHED[sc.touched:sc.touched + 64]):
        hyp.touch_page(vm, gpa, True, AnonContent(5000 + i))
    for pick in sc.swap_ins:
        hyp.touch_page(vm, TOUCHED[pick % sc.touched])
    if sc.flush:
        hyp._flush_swap_writes(vm)
    for pick in sc.partial:
        hyp.overwrite_page(vm, IMAGE_READ[pick % len(IMAGE_READ)],
                           AnonContent(9000 + pick), WritePattern.PARTIAL)
        hyp.overwrite_page(vm, TOUCHED[pick % sc.touched],
                           AnonContent(9500 + pick), WritePattern.PARTIAL)
    if sc.expire:
        cluster.engine.clock.advance_by(0.01)
    return cluster, vm


def _run_args(sc: Scenario, vm):
    if sc.run_from == "fresh":
        pool = list(FRESH)
    elif sc.run_from == "backed":
        emulated = (list(vm.preventer._emulated)
                    if vm.preventer is not None else [])
        discarded = [gpa for gpa in IMAGE_READ
                     if vm.mapper is not None
                     and vm.mapper.is_discarded(gpa)]
        pool = (list(vm.swap_cache) + sorted(vm.swap_slots) + emulated
                + discarded + list(FRESH[:16]))
    else:
        pool = list(TOUCHED) + list(IMAGE_READ) + list(FRESH)
    gpas = [pool[pick % len(pool)] for pick in sc.run]
    zero = sc.zero_mask + (False,) * len(gpas)
    contents = [ZERO if zero[i] else AnonContent(20000 + i)
                for i in range(len(gpas))]
    return gpas, contents


def _reclaim_rng_state(vm):
    for cell in vm.scanner._scan.__closure__:
        rand = cell.cell_contents
        if getattr(rand, "__name__", None) == "random":
            return rand.__self__.getstate()
    return None


def _state(cluster) -> dict:
    """Everything the simulator keeps, in comparable form."""
    host = cluster.hosts[0]
    hyp = host.hypervisor
    area = host.swap_area
    state = {
        "frames_used": host.frames.used,
        "slot_owner": {slot: (vm.name, gpa)
                       for slot, (vm, gpa) in hyp.slot_owner.items()},
        "swap_holes": dict(area._holes),
        "swap_allocated": set(area._allocated),
        "swap_frontier": area._frontier,
        "swap_high_watermark": area.high_watermark,
        "hyp_rng": hyp.rng._random.getstate(),
        "disk": (dataclasses.asdict(host.disk.stats),
                 host.disk._busy_until, host.disk._head_sector),
        "now": cluster.engine.now,
    }
    for vm in cluster.vms:
        mapper = vm.mapper
        preventer = vm.preventer
        state[vm.name] = {
            "present": bytes(vm.ept._present),
            "accessed": bytes(vm.ept._accessed),
            "dirty": bytes(vm.ept._dirty),
            "resident": vm.ept._resident,
            "content": dict(vm.content),
            "named_list": list(vm.scanner.named_list._entries),
            "anon_list": list(vm.scanner.anon_list._entries),
            "swap_slots": dict(vm.swap_slots),
            "pending_swap": dict(vm.pending_swap),
            "swap_cache": list(vm.swap_cache.items()),
            "swap_clean": dict(vm.swap_clean),
            "ballooned": set(vm.ballooned),
            "qemu": (set(vm.qemu.resident), set(vm.qemu.accessed)),
            "counters": vm.counters.snapshot(),
            "costs": (vm.costs.cpu_seconds, vm.costs.io_seconds,
                      vm.costs.fault_seconds, vm.costs._disk_mark),
            "mapper": (None if mapper is None else {
                a.gpa: (a.block, a.state) for a in mapper.associations()}),
            "emulated": (None if preventer is None else {
                gpa: dataclasses.astuple(page)
                for gpa, page in preventer._emulated.items()}),
            "reclaim_rng": _reclaim_rng_state(vm),
        }
    return state


def _outcome(call):
    try:
        call()
    except ReproError as error:
        return type(error).__name__
    return None


scenarios = st.builds(
    Scenario,
    vswapper=st.sampled_from(("off", "mapper", "full")),
    limit_mib=st.sampled_from((None, 1.0, 1.5)),
    host_frames=st.sampled_from((65536, 900, 1200)),
    noise=st.sampled_from((0.0, 0.3)),
    hardware_dirty_bit=st.booleans(),
    preventer_max_pages=st.sampled_from((1, 4, 32)),
    touched=st.integers(min_value=64, max_value=len(TOUCHED)),
    swap_ins=st.lists(st.integers(0, 10**4), max_size=6).map(tuple),
    partial=st.lists(st.integers(0, 10**4), max_size=6).map(tuple),
    flush=st.booleans(),
    expire=st.booleans(),
    run_from=st.sampled_from(("mixed", "fresh", "backed")),
    run=st.lists(st.integers(0, 10**4), min_size=1, max_size=120).map(tuple),
    zero_mask=st.lists(st.booleans(), max_size=120).map(tuple),
    pattern=st.sampled_from(PATTERNS),
    guest_costs=st.sampled_from(((), (1e-6,), (1e-6, 3.3e-7), (7e-8,))),
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios)
def test_overwrite_run_matches_per_page_oracle(sc):
    fast_cluster, fast_vm = _build(sc)
    slow_cluster, slow_vm = _build(sc)
    assert _state(fast_cluster) == _state(slow_cluster)
    gpas, contents = _run_args(sc, fast_vm)
    fast = _outcome(lambda: fast_vm.host.hypervisor.overwrite_run(
        fast_vm, gpas, contents, sc.pattern, sc.guest_costs))
    slow = _outcome(lambda: overwrite_oracle.overwrite_run(
        slow_vm.host.hypervisor, slow_vm, gpas, contents, sc.pattern,
        sc.guest_costs))
    assert fast == slow
    assert _state(fast_cluster) == _state(slow_cluster)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios)
def test_balloon_pin_matches_per_page_oracle(sc):
    fast_cluster, fast_vm = _build(sc)
    slow_cluster, slow_vm = _build(sc)
    gpas, _ = _run_args(sc, fast_vm)
    fast_vm.host.hypervisor.balloon_pin(fast_vm, gpas)
    overwrite_oracle.balloon_pin(slow_vm.host.hypervisor, slow_vm, gpas)
    assert _state(fast_cluster) == _state(slow_cluster)


def test_oracle_scenarios_reach_every_page_kind():
    """The setup really produces the page kinds the property mixes."""
    sc = Scenario(
        vswapper="full", limit_mib=1.0, host_frames=65536, noise=0.0,
        hardware_dirty_bit=False, preventer_max_pages=32, touched=600,
        swap_ins=(5, 70, 300), partial=(3, 40), flush=False,
        expire=False, run_from="backed", run=(0,), zero_mask=(),
        pattern=WritePattern.PARTIAL, guest_costs=())
    cluster, vm = _build(sc)
    assert vm.swap_slots and vm.pending_swap and vm.swap_cache
    assert vm.preventer._emulated
    assert any(vm.mapper.is_discarded(gpa) for gpa in IMAGE_READ)
    assert vm.counters.host_evictions > 0
    flushed, _ = _build(dataclasses.replace(sc, flush=True))
    assert flushed.vms[0].swap_slots and not flushed.vms[0].pending_swap


def test_run_crossing_the_limit_charges_like_single_pages():
    """A fresh run past the resident limit evicts mid-run and leaves
    the same float sum as page-at-a-time overwrites."""
    sc = Scenario(
        vswapper="off", limit_mib=1.0, host_frames=65536, noise=0.3,
        hardware_dirty_bit=False, preventer_max_pages=32, touched=200,
        swap_ins=(), partial=(), flush=False, expire=False,
        run_from="fresh", run=tuple(range(200)), zero_mask=(),
        pattern=WritePattern.FULL_SEQUENTIAL, guest_costs=(1e-6, 3.3e-7))
    fast_cluster, fast_vm = _build(sc)
    slow_cluster, slow_vm = _build(sc)
    gpas, contents = _run_args(sc, fast_vm)
    evictions = fast_vm.counters.host_evictions
    fast_vm.host.hypervisor.overwrite_run(
        fast_vm, gpas, contents, sc.pattern, sc.guest_costs)
    overwrite_oracle.overwrite_run(
        slow_vm.host.hypervisor, slow_vm, gpas, contents, sc.pattern,
        sc.guest_costs)
    assert fast_vm.counters.host_evictions > evictions
    assert _state(fast_cluster) == _state(slow_cluster)


# ----------------------------------------------------------------------
# bulk guest allocation
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class AllocScenario:
    window: int
    free_min: int
    free_target: int
    guest_swap_pages: int
    anon_pages: int
    cached_pages: int
    before: tuple[int, ...]
    n: int


def _build_guest(sc: AllocScenario):
    cluster = Cluster(small_cluster_config())
    host = cluster.hosts[0]
    guest_cfg = small_guest_config(
        allocator_window=sc.window, free_min_pages=sc.free_min,
        free_target_pages=sc.free_target,
        guest_swap_pages=sc.guest_swap_pages,
        kernel_reserve_pages=64, memory_pages=1024,
        unaligned_io_fraction=0.25)
    vm = cluster.create_vm(small_vm_config(guest=guest_cfg))
    guest = vm.guest
    # Fill the guest with reclaimable memory: anon pages (swappable)
    # and clean page-cache pages (droppable).
    guest.anon.commit("heap", sc.anon_pages)
    for index in range(sc.anon_pages):
        gpa = overwrite_oracle.alloc_gpa(guest)
        host.hypervisor.touch_page(vm, gpa, True, AnonContent(index + 1))
        guest.anon.place_in_memory("heap", index, gpa)
        guest.scanner.note_resident(gpa, named=False)
    for block in range(sc.cached_pages):
        gpa = overwrite_oracle.alloc_gpa(guest)
        guest.cache.insert(block, gpa, dirty=block % 3 == 0)
        guest.scanner.note_resident(gpa, named=True)
    for pick in sc.before:
        if guest.free_list:
            guest.free_list.append(guest.free_list.pop(
                pick % len(guest.free_list)))
    reclaims: list[tuple[int, int]] = []
    original = guest._guest_reclaim

    def logged(want):
        reclaims.append((len(guest.free_list), want))
        original(want)

    guest._guest_reclaim = logged
    return cluster, guest, reclaims


def _guest_state(cluster, guest) -> dict:
    return {
        "free_list": list(guest.free_list),
        "rng": guest.rng._random.getstate(),
        "oom_killed": guest.oom_killed,
        "gswap": (guest.gswap.free_slots,),
        "cache": sorted(guest.cache._by_block.items()),
        "anon_list": list(guest.scanner.anon_list._entries),
        "named_list": list(guest.scanner.named_list._entries),
        "host": _state(cluster),
    }


alloc_scenarios = st.builds(
    AllocScenario,
    window=st.sampled_from((1, 2, 5, 16, 64)),
    free_min=st.integers(0, 40),
    free_target=st.integers(0, 80),
    guest_swap_pages=st.sampled_from((0, 16, 256)),
    anon_pages=st.integers(1, 600),
    cached_pages=st.integers(0, 200),
    before=st.lists(st.integers(0, 10**4), max_size=8).map(tuple),
    n=st.integers(1, 1100),
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(alloc_scenarios)
def test_alloc_gpas_matches_single_page_allocations(sc):
    fast_cluster, fast_guest, fast_reclaims = _build_guest(sc)
    slow_cluster, slow_guest, slow_reclaims = _build_guest(sc)
    assert _guest_state(fast_cluster, fast_guest) == \
        _guest_state(slow_cluster, slow_guest)
    fast_taken: list[int] = []
    slow_taken: list[int] = []

    def slow():
        for _ in range(sc.n):
            slow_taken.append(overwrite_oracle.alloc_gpa(slow_guest))

    fast = _outcome(lambda: fast_guest._alloc_gpas(sc.n, fast_taken))
    assert fast == _outcome(slow)
    assert fast_taken == slow_taken
    assert fast_reclaims == slow_reclaims
    assert _guest_state(fast_cluster, fast_guest) == \
        _guest_state(slow_cluster, slow_guest)


def test_alloc_gpas_oom_mid_run_keeps_the_pages_taken():
    sc = AllocScenario(window=5, free_min=8, free_target=16,
                       guest_swap_pages=0, anon_pages=700, cached_pages=0,
                       before=(), n=400)
    cluster, guest, reclaims = _build_guest(sc)
    free = len(guest.free_list)
    taken: list[int] = []
    with pytest.raises(GuestOomKill):
        guest._alloc_gpas(sc.n, taken)
    # The first reclaim finds the guest swap device full.
    assert len(taken) == free - sc.free_min
    assert guest.oom_killed and reclaims
