"""Golden determinism fixture for the phased multi-VM (fig14) cells.

The fig9, ablation-ssd and cluster fixtures pin the file-backed path
and the fleet loop.  This one pins Figure 14's ten-guest column for the
two VSwapper configurations, ``vswapper@10`` and ``balloon+vswap@10``:
ten phased Metis guests on one host, where demand-zero allocation,
boot history, the False Reads Preventer and the balloon carry the CPU.
It records every VM's final counters, runtime, swap state, clock-list
order and guest free list; the folded RunResult; the engine's event
count and final virtual time; the balloon manager's decisions; the
host's swap-slot map and high watermark; and the ResultStore cache key.
``AnonContent`` tokens are left out: they come from a process-global
counter, so they depend on what else ran in the process.

Regenerate after an *intentional* behaviour change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/experiments/test_fig14_golden.py

and justify the diff in the PR description.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

import repro.experiments.dynamic as dynamic_module
from repro.disk.image import BlockVersion
from repro.exec.store import cell_key
from repro.experiments.dynamic import build_fig14_sweep, dynamic_cell
from repro.experiments.runner import ConfigName

GOLDEN_SCALE = 8
GOLDEN_CELLS = ("vswapper@10", "balloon+vswap@10")
GOLDEN_PATH = Path(__file__).parent / "data" / "fig14_golden_scale8.json"


def _digest(value) -> str:
    """sha256 of a structure's canonical JSON form."""
    canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _content_kind(content) -> object:
    """A page's content identity without process-global anon tokens."""
    if isinstance(content, BlockVersion):
        return [content.block, content.version]
    return "anon"


def _capture_cell(spec):
    """Run one dynamic cell, capturing its cluster, drivers and manager."""
    clusters: list = []
    drivers: list = []
    managers: list = []

    def capturing(cls, into):
        def build(*args, **kwargs):
            built = cls(*args, **kwargs)
            into.append(built)
            return built
        return build

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamic_module, "Cluster",
                      capturing(dynamic_module.Cluster, clusters))
        patch.setattr(dynamic_module, "VmDriver",
                      capturing(dynamic_module.VmDriver, drivers))
        patch.setattr(dynamic_module, "BalloonManager",
                      capturing(dynamic_module.BalloonManager, managers))
        result = dynamic_cell(spec)
    assert len(clusters) == 1, "the cell built more than one cluster"
    return result, clusters[0], drivers, managers


def _vm_snapshot(driver) -> dict:
    vm = driver.vm
    guest = vm.guest
    return {
        "crashed": driver.crashed,
        "runtime": (driver.runtime
                    if driver.finished_at is not None
                    and not driver.crashed else None),
        "counters": vm.counters.snapshot(),
        "resident_pages": vm.resident_pages,
        "ept_present": len(vm.ept),
        "swap_slots_sha256": _digest(sorted(map(list,
                                                vm.swap_slots.items()))),
        "swap_cache_sha256": _digest(list(map(list, vm.swap_cache.items()))),
        "pending_swap_sha256": _digest(sorted(map(list,
                                                  vm.pending_swap.items()))),
        "ballooned_sha256": _digest(sorted(vm.ballooned)),
        "content_sha256": _digest(sorted(
            [gpa, _content_kind(content)]
            for gpa, content in vm.content.items())),
        "host_anon_list_sha256": _digest(
            list(vm.scanner.anon_list._entries)),
        "host_named_list_sha256": _digest(
            list(vm.scanner.named_list._entries)),
        "guest_free_list_sha256": _digest(guest.free_list),
        "guest_balloon_pinned_sha256": _digest(sorted(guest.balloon_pinned)),
        "guest_anon_list_sha256": _digest(
            list(guest.scanner.anon_list._entries)),
        "guest_named_list_sha256": _digest(
            list(guest.scanner.named_list._entries)),
    }


def _cell_snapshot(spec) -> dict:
    result, cluster, drivers, managers = _capture_cell(spec)
    swap_area = cluster.hosts[0].swap_area
    slot_owner = cluster.hosts[0].hypervisor.slot_owner
    history = [list(entry) for manager in managers
               for entry in manager.history]
    return {
        "cell_key": cell_key(spec),
        "result": result.to_dict(),
        "events_dispatched": cluster.engine.events_dispatched,
        "final_virtual_time": cluster.engine.now,
        # (time, vm_id, target) per manager decision: thousands of
        # entries, so the file keeps their count, peak and a hash.
        "balloon_history_len": len(history),
        "balloon_history_max_target": max(
            (target for _, _, target in history), default=0),
        "balloon_history_sha256": _digest(history),
        "slot_owner_len": len(slot_owner),
        "slot_owner_sha256": _digest(sorted(
            [slot, vm.name, gpa] for slot, (vm, gpa) in slot_owner.items())),
        "swap_area_used_len": swap_area.used_slots,
        "swap_area_used_sha256": _digest(sorted(swap_area._allocated)),
        "swap_area_high_watermark": swap_area.high_watermark,
        "vms": {driver.vm.name: _vm_snapshot(driver) for driver in drivers},
    }


@pytest.fixture(scope="module")
def snapshots() -> dict:
    """Each pinned cell, run once per session."""
    sweep = build_fig14_sweep(
        scale=GOLDEN_SCALE, guest_counts=(10,),
        config_names=(ConfigName.VSWAPPER, ConfigName.BALLOON_VSWAPPER))
    specs = {cell.cell_id: cell for cell in sweep.cells}
    assert sorted(specs) == sorted(GOLDEN_CELLS)
    # Round-trip through JSON so tuples and floats compare the way the
    # checked-in file stores them.
    return json.loads(json.dumps(
        {cell_id: _cell_snapshot(specs[cell_id])
         for cell_id in GOLDEN_CELLS}))


@pytest.fixture(scope="module")
def golden(snapshots) -> dict:
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(
            {"scale": GOLDEN_SCALE, "cells": snapshots},
            indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {GOLDEN_PATH}")
    assert GOLDEN_PATH.exists(), (
        f"golden snapshot missing; regenerate with REPRO_REGEN_GOLDEN=1 "
        f"({GOLDEN_PATH})")
    data = json.loads(GOLDEN_PATH.read_text())
    assert data["scale"] == GOLDEN_SCALE
    return data["cells"]


@pytest.mark.parametrize("cell_id", GOLDEN_CELLS)
def test_fig14_cell_matches_golden_snapshot(cell_id, snapshots, golden):
    got = snapshots[cell_id]
    want = golden[cell_id]
    for field in sorted(set(want) | set(got)):
        if field == "vms":
            continue
        assert got.get(field) == want.get(field), (
            f"{cell_id}: {field} diverged from the golden snapshot")
    assert sorted(got["vms"]) == sorted(want["vms"])
    for name, vm in got["vms"].items():
        for field in sorted(set(vm) | set(want["vms"][name])):
            assert vm.get(field) == want["vms"][name].get(field), (
                f"{cell_id}/{name}: {field} diverged from the golden "
                f"snapshot")


def test_fig14_golden_cells_exercise_the_overwrite_paths(golden):
    """The pinned cells still reach the paths the fixture guards."""
    def total(cell_id, counter):
        return sum(vm["counters"][counter]
                   for vm in golden[cell_id]["vms"].values())

    assert total("vswapper@10", "mapper_discards") > 0
    assert total("balloon+vswap@10", "preventer_remaps") > 0
    assert total("balloon+vswap@10", "balloon_inflated_pages") > 0
    assert golden["balloon+vswap@10"]["balloon_history_max_target"] > 0
