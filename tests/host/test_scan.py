"""The host's fused reclaim scan against its layered oracle."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.mem.lru import ClockList
from repro.sim.rng import DeterministicRng
from tests.conftest import small_cluster_config, small_vm_config
from tests.host.scan_oracle import layered_probe

#: Guest GPAs drawn past the end of the small VM's EPT (4096 pages),
#: so out-of-table keys are covered as well.
GPA_LIMIT = 4200
CODE_PAGES = 16

#: EPT state of one GPA key: never mapped, mapped then unmapped with a
#: stale accessed bit, or present with the accessed bit clear / set.
GPA_STATES = ("absent", "stale", "clear", "accessed")


def _fresh_vm():
    cluster = Cluster(small_cluster_config())
    return cluster.create_vm(small_vm_config())


def _install(vm, gpa_states, code_accessed, pinned) -> None:
    for gpa, state in gpa_states.items():
        if state == "absent" or gpa >= vm.ept._size:
            continue
        vm.ept.map_page(gpa, accessed=state != "clear")
        if state == "stale":
            vm.ept.unmap_page(gpa)
    vm.qemu.accessed.update(
        index for index, hot in code_accessed.items() if hot)
    vm.io_pinned.update(pinned)


def _state(vm, clock, rng) -> tuple:
    return (clock.keys_in_order(), bytes(vm.ept._accessed),
            sorted(vm.qemu.accessed), rng._random.getstate())


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       gpa_states=st.dictionaries(st.integers(0, GPA_LIMIT),
                                  st.sampled_from(GPA_STATES), max_size=40),
       code_accessed=st.dictionaries(st.integers(0, CODE_PAGES - 1),
                                     st.booleans(), max_size=CODE_PAGES),
       noise=st.sampled_from([0.0, 0.06, 0.5, 1.0]),
       seed=st.integers(0, 2**31 - 1))
def test_fused_scan_equals_layered_oracle(data, gpa_states, code_accessed,
                                          noise, seed):
    keys = list(gpa_states) + [("code", i) for i in code_accessed]
    order = data.draw(st.permutations(keys), label="order")
    pinned = data.draw(st.sets(st.sampled_from(sorted(gpa_states)))
                       if gpa_states else st.just(set()), label="pinned")
    wants = data.draw(st.lists(st.integers(0, 2 * len(keys) + 2),
                               min_size=1, max_size=3), label="wants")

    fused_vm, oracle_vm = _fresh_vm(), _fresh_vm()
    fused_rng, oracle_rng = DeterministicRng(seed), DeterministicRng(seed)
    fused_clock, oracle_clock = ClockList(), ClockList()
    for vm, clock in ((fused_vm, fused_clock), (oracle_vm, oracle_clock)):
        _install(vm, gpa_states, code_accessed, pinned)
        for key in order:
            clock.add(key)

    scan = fused_vm._build_scan(noise, fused_rng)
    probe = layered_probe(oracle_vm, noise, oracle_rng)
    # Consecutive passes see the bits earlier passes cleared.
    for want in wants:
        assert scan(fused_clock, want) == oracle_clock.scan(want, probe)
        assert (_state(fused_vm, fused_clock, fused_rng)
                == _state(oracle_vm, oracle_clock, oracle_rng))
