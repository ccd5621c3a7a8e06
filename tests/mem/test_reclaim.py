"""Named/anon reclaim scanning."""

import pytest

from repro.errors import MemoryError_
from repro.mem.reclaim import ReclaimScanner
from repro.sim.rng import DeterministicRng


def clock_scan(referenced):
    """A scan callable that runs ``ClockList.scan`` with ``referenced``."""
    return lambda clock_list, want: clock_list.scan(want, referenced)


def make_scanner(referenced=None, **kwargs):
    return ReclaimScanner(
        clock_scan(referenced or (lambda key: False)), **kwargs)


def test_resident_counting():
    scanner = make_scanner()
    scanner.note_resident(1, named=True)
    scanner.note_resident(2, named=False)
    assert scanner.resident == 2
    assert scanner.is_named(1)
    assert not scanner.is_named(2)


def test_note_evicted_clears_both_lists():
    scanner = make_scanner()
    scanner.note_resident(1, named=True)
    scanner.note_evicted(1)
    assert scanner.resident == 0


def test_change_kind_moves_lists():
    scanner = make_scanner()
    scanner.note_resident(1, named=True)
    scanner.change_kind(1, named=False)
    assert not scanner.is_named(1)
    assert scanner.resident == 1


def test_named_preference():
    scanner = make_scanner(named_fraction=0.75)
    for key in range(4):
        scanner.note_resident(("named", key), named=True)
    for key in range(20):
        scanner.note_resident(("anon", key), named=False)
    result = scanner.pick_victims(4)
    # Named picks come first: 0.75 * 4 of them, then one anon pick.
    assert result.victims == [("named", 0), ("named", 1), ("named", 2),
                              ("anon", 0)]


def test_all_from_named_when_anon_empty():
    scanner = make_scanner()
    for key in range(8):
        scanner.note_resident(key, named=True)
    result = scanner.pick_victims(4)
    assert result.victims == [0, 1, 2, 3]
    assert list(scanner.named_list) == [4, 5, 6, 7]


def test_shortfall_escalates_to_named():
    # Anon nearly empty: the named list must cover the shortfall even
    # beyond its fraction.
    scanner = make_scanner()
    for key in range(10):
        scanner.note_resident(("named", key), named=True)
    scanner.note_resident(("anon", 0), named=False)
    result = scanner.pick_victims(6)
    assert len(result.victims) == 6


def test_examined_counts_rotations():
    referenced = {1, 2}

    def probe(key):
        if key in referenced:
            referenced.discard(key)
            return True
        return False

    scanner = make_scanner(probe)
    for key in (1, 2, 3, 4):
        scanner.note_resident(key, named=False)
    result = scanner.pick_victims(1)
    assert result.victims == [3]
    assert result.examined == 3


def test_unevictable_pages_survive_even_escalation():
    pinned = {("named", 0)}
    scanner = make_scanner(lambda key: key in pinned,
                           unevictable=lambda key: key in pinned)
    for key in range(3):
        scanner.note_resident(("named", key), named=True)
    result = scanner.pick_victims(3)
    victims = result.victims
    assert ("named", 0) not in victims
    assert len(victims) == 2


# Referenced-bit noise is part of the host's scan (``Vm._build_scan``);
# the fused loop is checked against its layered oracle in
# tests/host/test_scan.py.

def test_noise_requires_rng(vm):
    with pytest.raises(MemoryError_):
        vm._build_scan(0.5, None)


def test_noise_perturbs_eviction_order(vm):
    def build(noise):
        # GPAs 0..63 are not present in the EPT: without noise nothing
        # is referenced and the hand takes them in order.
        scanner = ReclaimScanner(
            vm._build_scan(noise, DeterministicRng(3)))
        for key in range(64):
            scanner.note_resident(key, named=False)
        result = scanner.pick_victims(32)
        return result.victims

    assert build(0.0) == list(range(32))
    assert build(0.5) != list(range(32))


def test_bad_fraction_rejected():
    with pytest.raises(MemoryError_):
        make_scanner(named_fraction=1.5)


def test_want_zero_returns_empty():
    scanner = make_scanner()
    scanner.note_resident(1, named=False)
    result = scanner.pick_victims(0)
    assert result.victims == []
    assert result.examined == 0


def test_cold_insertion_evicted_first():
    scanner = make_scanner()
    scanner.note_resident(1, named=False)
    scanner.note_resident(2, named=False, cold=True)
    result = scanner.pick_victims(1)
    assert result.victims == [2]
