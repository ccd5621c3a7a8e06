"""Golden determinism fixture for the fig9 cell runner.

Pins the complete observable outcome of every Figure 9 configuration --
final counters, the swap-slot map, swap-area layout, engine event count,
iteration durations, and the ResultStore cache key -- as a checked-in
JSON snapshot.  Any hot-path rewrite (array-backed EPT, batched
dispatch, reclaim coarsening) must leave every one of these values
bit-identical; this test is the tripwire guarding every future perf PR.

The snapshot runs at scale 8 -- the same divisor ``REPRO_BENCH_SCALE``
defaults to -- because scale 1 is the paper-sized run (minutes per
cell) and the determinism argument is scale-independent: every code
path the paper's mechanisms exercise (stale reads, false reads, silent
writes, readahead decay, code refaults) fires at scale 8 too.

Regenerate after an *intentional* behaviour change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/experiments/test_fig09_golden.py

and justify the diff in the PR description.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

import repro.experiments.runner as runner_module
from repro.cluster import Cluster
from repro.exec.store import cell_key
from repro.experiments.fig09 import build_fig09_sweep, fig09_cell

GOLDEN_SCALE = 8
GOLDEN_PATH = Path(__file__).parent / "data" / "fig09_golden_scale8.json"


def _digest(value) -> str:
    """Compact bit-exact fingerprint of a large structure.

    The swap-slot map alone runs to tens of thousands of entries per
    cell; checking in a hash keeps the snapshot reviewable while still
    detecting any single-entry divergence.
    """
    canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _capture_cell(spec):
    """Run one fig9 cell while capturing the Cluster it builds."""
    captured: list[Cluster] = []

    def capturing(config):
        cluster = Cluster(config)
        captured.append(cluster)
        return cluster

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner_module, "Cluster", capturing)
        result = fig09_cell(spec)
    assert len(captured) == 1, "fig09_cell built more than one cluster"
    return result, captured[0]


def _snapshot_cell(spec) -> dict:
    result, cluster = _capture_cell(spec)
    vm = cluster.vms[0]
    swap_area = cluster.hosts[0].swap_area
    return {
        "cell_key": cell_key(spec),
        "config": spec.config,
        "runtime": result.runtime,
        "crashed": result.crashed,
        "iteration_durations": result.iteration_durations(),
        "counters": dict(sorted(result.counters.items())),
        # The swap-slot map is the paper's sequentiality state: any
        # reordering of allocations or evictions shows up first in
        # these fingerprints.
        "swap_slots_len": len(vm.swap_slots),
        "swap_slots_sha256": _digest(sorted(map(list,
                                                vm.swap_slots.items()))),
        "swap_cache_sha256": _digest(sorted(map(list,
                                                vm.swap_cache.items()))),
        "swap_clean_sha256": _digest(sorted(map(list,
                                                vm.swap_clean.items()))),
        "pending_swap_sha256": _digest(sorted(map(list,
                                                  vm.pending_swap.items()))),
        "swap_area_used_len": len(swap_area._allocated),
        "swap_area_used_sha256": _digest(sorted(swap_area._allocated)),
        "swap_area_high_watermark": swap_area.high_watermark,
        "resident_pages": vm.resident_pages,
        "ept_present": len(vm.ept),
        "events_dispatched": cluster.engine.events_dispatched,
        "final_virtual_time": cluster.engine.now,
    }


def _current_snapshot() -> dict:
    sweep = build_fig09_sweep(scale=GOLDEN_SCALE)
    return {
        "scale": GOLDEN_SCALE,
        "cells": {spec.cell_id: _snapshot_cell(spec)
                  for spec in sweep.cells},
    }


def test_fig09_matches_golden_snapshot():
    current = _current_snapshot()
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(current, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {GOLDEN_PATH}")
    assert GOLDEN_PATH.exists(), (
        f"golden snapshot missing; regenerate with REPRO_REGEN_GOLDEN=1 "
        f"({GOLDEN_PATH})")
    golden = json.loads(GOLDEN_PATH.read_text())
    assert current["scale"] == golden["scale"]
    assert sorted(current["cells"]) == sorted(golden["cells"])
    for cell_id, got in current["cells"].items():
        want = golden["cells"][cell_id]
        for field in sorted(set(want) | set(got)):
            assert got.get(field) == want.get(field), (
                f"{cell_id}: {field} diverged from the golden snapshot")
