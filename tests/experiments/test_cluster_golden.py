"""Golden determinism fixture for the multi-host fleet cell runner.

The fig9 and ablation-ssd fixtures pin single-VM cells only.  This one
pins the ``cluster`` experiment's ``baseline@first-fitx8`` cell: eight
phased MapReduce guests on four hosts under first-fit placement.  It
exercises host reclaim on several hosts at once, the shared fleet
loop, and pressure-driven live migration (two migrations at the
default seed; the test fails if there are none).  It records every VM's final counters, runtime and
host, the placements, the migration log, the engine's event count and
final virtual time, the folded RunResult, and the ResultStore cache
key.  A change to reclaim, placement, migration or the fleet loop that
moves any of them fails here.

Regenerate after an *intentional* behaviour change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/experiments/test_cluster_golden.py

and justify the diff in the PR description.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

import repro.experiments.dynamic as dynamic_module
from repro.exec.store import cell_key
from repro.experiments.cluster import build_cluster_exp_sweep, \
    cluster_fleet_cell

GOLDEN_SCALE = 8
GOLDEN_CELL = "baseline@first-fitx8"
GOLDEN_PATH = Path(__file__).parent / "data" / "cluster_golden_scale8.json"


def _capture_cell(spec, monkeypatch):
    """Run one fleet cell while capturing its Cluster and drivers."""
    clusters: list = []
    drivers: list = []
    original_cluster = dynamic_module.Cluster
    original_driver = dynamic_module.VmDriver

    def capturing_cluster(config):
        cluster = original_cluster(config)
        clusters.append(cluster)
        return cluster

    def capturing_driver(*args, **kwargs):
        driver = original_driver(*args, **kwargs)
        drivers.append(driver)
        return driver

    monkeypatch.setattr(dynamic_module, "Cluster", capturing_cluster)
    monkeypatch.setattr(dynamic_module, "VmDriver", capturing_driver)
    result = cluster_fleet_cell(spec)
    assert len(clusters) == 1, "the fleet cell built more than one cluster"
    return result, clusters[0], drivers


def _snapshot(monkeypatch) -> dict:
    sweep = build_cluster_exp_sweep(scale=GOLDEN_SCALE)
    spec = {cell.cell_id: cell for cell in sweep.cells}[GOLDEN_CELL]
    result, cluster, drivers = _capture_cell(spec, monkeypatch)
    return {
        "scale": GOLDEN_SCALE,
        "cell_id": GOLDEN_CELL,
        "cell_key": cell_key(spec),
        "runtime": result.runtime,
        "crashed": result.crashed,
        "counters": dict(sorted(result.counters.items())),
        "vms": {
            driver.vm.name: {
                "host": (driver.vm.host.name
                         if driver.vm.host is not None else None),
                "crashed": driver.crashed,
                "runtime": (driver.runtime
                            if driver.done and not driver.crashed else None),
                "counters": driver.vm.counters.snapshot(),
            }
            for driver in drivers
        },
        "placements": [list(pair) for pair in cluster.placements],
        "migrations": [record.to_dict() for record in cluster.migrations],
        "events_dispatched": cluster.engine.events_dispatched,
        "final_virtual_time": cluster.engine.now,
    }


def test_cluster_fleet_matches_golden_snapshot(monkeypatch):
    current = _snapshot(monkeypatch)
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(current, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {GOLDEN_PATH}")
    assert GOLDEN_PATH.exists(), (
        f"golden snapshot missing; regenerate with REPRO_REGEN_GOLDEN=1 "
        f"({GOLDEN_PATH})")
    golden = json.loads(GOLDEN_PATH.read_text())
    # Round-trip through JSON so tuples and float formatting compare
    # the way the checked-in file stores them.
    current = json.loads(json.dumps(current))
    assert current["migrations"], "the pinned cell no longer migrates"
    for field in sorted(set(golden) | set(current)):
        if field == "vms":
            continue
        assert current.get(field) == golden.get(field), (
            f"{field} diverged from the golden snapshot")
    assert sorted(current["vms"]) == sorted(golden["vms"])
    for name, got in current["vms"].items():
        assert got == golden["vms"][name], (
            f"{name} diverged from the golden snapshot")
