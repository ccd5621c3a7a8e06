"""Cross-cutting property-based tests on the integrated stack."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.config import VSwapperConfig
from repro.core.preventer import FalseReadsPreventer, OverwriteVerdict
from repro.guest.kernel import Transfer
from repro.mem.page import ZERO
from repro.sim.engine import Engine
from repro.sim.ops import WritePattern
from tests.conftest import small_cluster_config, small_vm_config


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40),
                          st.sampled_from(list(WritePattern)),
                          st.floats(min_value=0, max_value=0.01)),
                max_size=60))
def test_preventer_state_machine_never_leaks(events):
    """Any interleaving of overwrites keeps the buffer count within
    the cap and every buffer findable/closable."""
    config = VSwapperConfig(enable_preventer=True, preventer_max_pages=8)
    preventer = FalseReadsPreventer(config)
    now = 0.0
    for gpa, pattern, dt in events:
        now += dt
        verdict = preventer.classify_overwrite(gpa, pattern, now)
        assert preventer.pages_under_emulation <= 8
        if verdict is OverwriteVerdict.BUFFERED:
            assert preventer.is_emulated(gpa)
        else:
            assert not preventer.is_emulated(gpa)
        preventer.expired(now)
        assert preventer.pages_under_emulation <= 8
    remaining = preventer.close_all()
    assert preventer.pages_under_emulation == 0
    assert len(set(remaining)) == len(remaining)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=100.0),
                min_size=1, max_size=40))
def test_engine_never_goes_backwards(delays):
    engine = Engine()
    seen = []
    for delay in delays:
        engine.schedule(delay, lambda: seen.append(engine.now))
    engine.run()
    assert seen == sorted(seen)
    assert len(seen) == len(delays)


@settings(max_examples=10, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 511)),
                min_size=1, max_size=200))
def test_hypervisor_access_sequences_conserve_frames(ops):
    """Arbitrary touch/overwrite sequences under pressure keep the
    frame pool consistent with per-VM residency."""
    cluster = Cluster(small_cluster_config())
    host = cluster.hosts[0]
    vm = cluster.create_vm(small_vm_config(resident_limit_mib=1))
    hyp = host.hypervisor
    from repro.mem.page import AnonContent
    for is_write, page in ops:
        gpa = 0x100 + page
        if is_write:
            hyp.overwrite_page(vm, gpa, AnonContent.fresh(),
                               WritePattern.FULL_SEQUENTIAL)
        else:
            hyp.touch_page(vm, gpa)
        accounted = (vm.ept.resident_pages + len(vm.qemu.resident)
                     + len(vm.swap_cache))
        assert host.frames.used == accounted
        assert vm.resident_pages <= vm.resident_limit
        # A page is never both resident and swapped.
        assert not (vm.ept.is_present(gpa) and gpa in vm.swap_slots)


@settings(max_examples=10, deadline=None)
@given(st.lists(st.integers(0, 255), min_size=1, max_size=150),
       st.booleans())
def test_mapper_consistency_under_random_io(blocks, use_mapper):
    """Random reads/writes over a small block space never violate the
    tracked-page == image-block invariant (the hypervisor self-checks
    on every refault and raises ConsistencyError if broken)."""
    cluster = Cluster(small_cluster_config())
    host = cluster.hosts[0]
    vswapper = (VSwapperConfig.mapper_only() if use_mapper
                else VSwapperConfig.off())
    vm = cluster.create_vm(small_vm_config(
        vswapper=vswapper, resident_limit_mib=1))
    hyp = host.hypervisor
    for i, block in enumerate(blocks):
        gpa = 0x100 + (block % 64)
        if i % 3 == 0:
            if not vm.ept.is_present(gpa):
                hyp.touch_page(vm, gpa, write=True)
            hyp.virtio_write(vm, [Transfer(block, gpa)])
        else:
            hyp.virtio_read(vm, [Transfer(block, gpa)])
    if use_mapper:
        # Every still-tracked resident page matches its block.
        for gpa in vm.ept.present_gpas():
            if vm.mapper.is_tracked_resident(gpa):
                assert vm.image.matches(
                    vm.mapper.block_of(gpa), vm.content_of(gpa))


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_fault_injection_preserves_determinism(seed):
    """Same seed + same FaultPlan => bit-identical counters across two
    runs: injection is part of the deterministic schedule, not noise."""
    from repro.config import FaultConfig
    from repro.errors import ReproError

    def fingerprint():
        faults = FaultConfig(
            enabled=True,
            disk_transient_error_rate=0.01,
            disk_latency_spike_rate=0.01,
            disk_torn_write_rate=0.01,
            swap_read_error_rate=0.01,
            swap_slot_corruption_rate=0.001,
            mapper_invalidation_rate=0.05,
            mapper_breaker_threshold=3,
        )
        cluster = Cluster(small_cluster_config(
            swap_writeback_batch_pages=16, seed=seed, faults=faults))
        host = cluster.hosts[0]
        vm = cluster.create_vm(small_vm_config(
            vswapper=VSwapperConfig.mapper_only(), resident_limit_mib=1))
        hyp = host.hypervisor
        trace = []
        for i in range(800):
            try:
                if i % 5 == 0:
                    hyp.virtio_read(
                        vm, [Transfer(i % 128, 0x100 + (i * 7) % 512)])
                else:
                    hyp.touch_page(vm, 0x100 + (i * 7) % 512,
                                   write=(i % 2 == 0))
            except ReproError as error:
                trace.append((i, type(error).__name__))
        return (vm.counters.snapshot(), host.disk.stats.requests,
                cluster.faults.counters.snapshot(), vm.degraded, trace)

    assert fingerprint() == fingerprint()


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_full_stack_determinism_per_seed(seed):
    """Two identical machines given the same seed behave identically."""
    def fingerprint():
        cluster = Cluster(small_cluster_config(reclaim_noise=0.1, seed=seed))
        host = cluster.hosts[0]
        vm = cluster.create_vm(small_vm_config(resident_limit_mib=2))
        hyp = host.hypervisor
        for i in range(1500):
            hyp.touch_page(vm, 0x100 + (i * 7) % 1024, write=(i % 2 == 0))
        return vm.counters.snapshot(), host.disk.stats.requests

    assert fingerprint() == fingerprint()
