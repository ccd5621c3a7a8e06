"""Golden determinism fixture for the cluster-chaos cell runner.

The cluster fixture pins a fault-free fleet.  This one pins the
``cluster-chaos`` experiment's ``crash-most@first-fitx8`` cell at scale
8: eight phased MapReduce guests on four hosts, three of which crash,
so recovery evacuates most of the fleet onto the one survivor node,
retries, and finally gives VMs up.  It records the folded RunResult
(counters, placements, migration and loss phases, and the survivor
fingerprints the assembler cross-checks), the cluster's migration and
loss logs, every VM's final counters, runtime and host, the engine's
event count and final virtual time, and the ResultStore cache key.  A
change to host-fault injection, evacuation, placement or the fleet
loop that moves any of them fails here.

The Cluster and the drivers are captured by wrapping the classes'
constructors, so the test does not depend on which module builds them.

Regenerate after an *intentional* behaviour change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/experiments/test_cluster_chaos_golden.py

and justify the diff in the PR description.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.cluster import Cluster
from repro.driver import VmDriver
from repro.exec.store import cell_key
from repro.experiments.cluster_chaos import (
    build_cluster_chaos_sweep,
    cluster_chaos_cell,
)

GOLDEN_SCALE = 8
GOLDEN_CELL = "crash-most@first-fitx8"
GOLDEN_PATH = (Path(__file__).parent / "data"
               / "cluster_chaos_golden_scale8.json")


def _capture_cell(spec, monkeypatch):
    """Run one chaos cell while capturing its Cluster and drivers."""
    clusters: list = []
    drivers: list = []
    cluster_init = Cluster.__init__
    driver_init = VmDriver.__init__

    def capturing_cluster_init(self, *args, **kwargs):
        cluster_init(self, *args, **kwargs)
        clusters.append(self)

    def capturing_driver_init(self, *args, **kwargs):
        driver_init(self, *args, **kwargs)
        drivers.append(self)

    monkeypatch.setattr(Cluster, "__init__", capturing_cluster_init)
    monkeypatch.setattr(VmDriver, "__init__", capturing_driver_init)
    result = cluster_chaos_cell(spec)
    assert len(clusters) == 1, "the chaos cell built more than one cluster"
    return result, clusters[0], drivers


def _snapshot(monkeypatch) -> dict:
    sweep = build_cluster_chaos_sweep(scale=GOLDEN_SCALE)
    spec = {cell.cell_id: cell for cell in sweep.cells}[GOLDEN_CELL]
    result, cluster, drivers = _capture_cell(spec, monkeypatch)
    return {
        "scale": GOLDEN_SCALE,
        "cell_id": GOLDEN_CELL,
        "cell_key": cell_key(spec),
        "result": result.to_dict(),
        "vms": {
            driver.vm.name: {
                "host": (driver.vm.host.name
                         if driver.vm.host is not None else None),
                "lost": driver.vm.lost,
                "crashed": driver.crashed,
                "runtime": (driver.runtime
                            if driver.done and not driver.crashed else None),
                "counters": driver.vm.counters.snapshot(),
            }
            for driver in drivers
        },
        "host_states": {host.name: host.state.value
                        for host in cluster.hosts},
        "migrations": [record.to_dict() for record in cluster.migrations],
        "lost": [record.to_dict() for record in cluster.lost],
        "evac_retries": cluster.evac.retries,
        "events_dispatched": cluster.engine.events_dispatched,
        "final_virtual_time": cluster.engine.now,
    }


def test_cluster_chaos_matches_golden_snapshot(monkeypatch):
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
    assert current["lost"], "the pinned cell no longer loses a VM"
    assert any(record["kind"] == "evacuation"
               for record in current["migrations"]), (
        "the pinned cell no longer evacuates")
    for field in sorted(set(golden) | set(current)):
        if field == "vms":
            continue
        assert current.get(field) == golden.get(field), (
            f"{field} diverged from the golden snapshot")
    assert sorted(current["vms"]) == sorted(golden["vms"])
    for name, got in current["vms"].items():
        assert got == golden["vms"][name], (
            f"{name} diverged from the golden snapshot")
