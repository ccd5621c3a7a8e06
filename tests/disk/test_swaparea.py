"""Swap-area run allocator: contiguity, coalescing, conservation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk.geometry import DiskRegion
from repro.disk.swaparea import HostSwapArea
from repro.errors import DiskError


def make_area(pages=256):
    return HostSwapArea(
        DiskRegion("swap", base_sector=0, size_sectors=pages * 8))


def test_first_run_is_contiguous_from_zero():
    area = make_area()
    assert area.allocate_run(8) == list(range(8))


def test_runs_advance_through_fresh_space():
    area = make_area()
    area.allocate_run(8)
    assert area.allocate_run(4) == [8, 9, 10, 11]


def test_single_allocation():
    area = make_area()
    slot = area.allocate()
    assert slot == 0
    assert area.used_slots == 1


def test_free_and_reuse_lowest_hole():
    area = make_area()
    area.allocate_run(16)
    for slot in (3, 4, 5, 6):
        area.free(slot)
    assert area.allocate_run(4) == [3, 4, 5, 6]


def test_small_holes_skipped_for_large_runs():
    area = make_area()
    area.allocate_run(16)
    area.free(3)  # 1-slot hole
    run = area.allocate_run(4)
    assert run == [16, 17, 18, 19]  # fresh space, not the hole


def test_holes_coalesce():
    area = make_area()
    area.allocate_run(16)
    # Free out of order; the three must coalesce into one run of 3.
    area.free(5)
    area.free(7)
    area.free(6)
    assert area.allocate_run(3) == [5, 6, 7]


def test_fragmented_fallback_gathers_pieces():
    area = make_area(pages=16)
    area.allocate_run(16)
    for slot in (1, 5, 9, 13):
        area.free(slot)
    run = area.allocate_run(4)
    assert sorted(run) == [1, 5, 9, 13]


def test_exhaustion_raises():
    area = make_area(pages=8)
    area.allocate_run(8)
    with pytest.raises(DiskError):
        area.allocate()


def test_double_free_rejected():
    area = make_area()
    slot = area.allocate()
    area.free(slot)
    with pytest.raises(DiskError):
        area.free(slot)


def test_free_unallocated_rejected():
    area = make_area()
    with pytest.raises(DiskError):
        area.free(3)


def test_non_positive_run_rejected():
    area = make_area()
    with pytest.raises(DiskError):
        area.allocate_run(0)


def test_counts():
    area = make_area(pages=64)
    area.allocate_run(10)
    assert area.used_slots == 10
    assert area.free_slots == 54
    area.free(0)
    assert area.used_slots == 9


def test_high_watermark():
    area = make_area()
    area.allocate_run(10)
    assert area.high_watermark == 10
    area.free(9)
    area.allocate()
    assert area.high_watermark == 10  # reuse does not raise it


def test_cluster_of_alignment():
    area = make_area(pages=64)
    assert list(area.cluster_of(11, 8)) == list(range(8, 16))
    assert list(area.cluster_of(0, 8)) == list(range(0, 8))


def test_cluster_of_clipped_at_end():
    area = make_area(pages=12)
    assert list(area.cluster_of(11, 8)) == [8, 9, 10, 11]


def test_cluster_of_rejects_bad_size():
    area = make_area()
    with pytest.raises(DiskError):
        area.cluster_of(0, 0)


def test_sector_of():
    area = make_area()
    assert area.sector_of(3) == 24
    with pytest.raises(DiskError):
        area.sector_of(10**9)


def test_fragmentation_diagnostic():
    area = make_area()
    area.allocate_run(64)
    assert area.fragmentation() == 0.0
    area.free(1)
    assert area.fragmentation() == 1.0


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.booleans(), st.integers(min_value=1, max_value=12)),
    min_size=1, max_size=80))
def test_property_conservation_and_no_double_allocation(ops):
    """Random alloc/free interleavings keep perfect slot accounting."""
    area = make_area(pages=512)
    live: list[int] = []
    for is_alloc, n in ops:
        if is_alloc and area.free_slots >= n:
            slots = area.allocate_run(n)
            assert len(slots) == n
            assert len(set(slots)) == n         # no duplicates
            assert not set(slots) & set(live)   # no double allocation
            live.extend(slots)
        elif live:
            for _ in range(min(n, len(live))):
                area.free(live.pop())
        assert area.used_slots == len(live)
        assert area.used_slots + area.free_slots == area.size_slots


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=63),
               min_size=0, max_size=64))
def test_property_free_set_fully_reusable(freed):
    """Everything freed can be allocated again, one way or another."""
    area = make_area(pages=64)
    area.allocate_run(64)
    for slot in freed:
        area.free(slot)
    recovered = []
    for _ in range(len(freed)):
        recovered.append(area.allocate())
    assert sorted(recovered) == sorted(freed)


class LinearScanSwapArea(HostSwapArea):
    """Oracle: the hole queries as a linear scan over every hole."""

    def _lowest_hole(self, n):
        best_start = None
        for start, length in self._holes.items():
            if length >= n and (best_start is None or start < best_start):
                best_start = start
        return best_start

    def _largest_fit(self, want):
        best = 0
        for length in self._holes.values():
            best = max(best, min(length, want))
            if best == want:
                return best
        if self._frontier < self.size_slots:
            best = max(best, min(want, self.size_slots - self._frontier))
        if best == 0:
            raise DiskError("host swap area exhausted")
        return best


def _index_consistent(area):
    """Once filed, the length index holds every live hole."""
    area._file_new_holes()
    assert not area._new_holes
    assert area._lengths == sorted(area._starts_by_length)
    for start, length in area._holes.items():
        assert start in area._starts_by_length[length]


@settings(max_examples=80, deadline=None)
@given(st.lists(
    st.tuples(st.booleans(), st.integers(min_value=1, max_value=24),
              st.integers(min_value=0, max_value=10**6)),
    min_size=1, max_size=200))
def test_property_indexed_holes_match_linear_scan(ops):
    """allocate_run/free hand out the same slots as the linear scan."""
    pages = 96
    area = make_area(pages=pages)
    oracle = LinearScanSwapArea(
        DiskRegion("swap", base_sector=0, size_sectors=pages * 8))
    live: list[int] = []
    for is_alloc, n, pick in ops:
        if is_alloc and area.free_slots >= n:
            got = area.allocate_run(n)
            assert got == oracle.allocate_run(n)
            live.extend(got)
        elif live:
            # Free a pseudo-random live slot so holes fragment.
            for _ in range(min(n, len(live))):
                slot = live.pop(pick % len(live))
                area.free(slot)
                oracle.free(slot)
        assert area._holes == oracle._holes
        assert area._frontier == oracle._frontier
        assert area.high_watermark == oracle.high_watermark
        for want in (1, 3, 8, 24):
            if area.free_slots:
                assert area._largest_fit(want) == oracle._largest_fit(want)
    _index_consistent(area)


def test_index_rebuilds_when_mostly_stale():
    """A hole that keeps growing leaves one stale entry per length it
    passed through; past the bound the index is rebuilt, and queries
    still agree with the linear scan."""
    area = make_area(pages=256)
    oracle = LinearScanSwapArea(
        DiskRegion("swap", base_sector=0, size_sectors=256 * 8))
    assert area.allocate_run(200) == oracle.allocate_run(200)
    index = area._starts_by_length
    for slot in range(150):
        area.free(slot)
        oracle.free(slot)
        assert area._lowest_hole(151) == oracle._lowest_hole(151)
    assert area._starts_by_length is not index
    assert area.allocate_run(120) == oracle.allocate_run(120)
    assert area.allocate_run(40) == oracle.allocate_run(40)
    _index_consistent(area)
