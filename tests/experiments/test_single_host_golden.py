"""Golden fixtures for two single-host paths no other fixture covers.

* ``fig15``: one sampled Eclipse cell.  Its timeline tail -- the
  samples taken between the workload finishing and the end of the
  run slice it finished in -- depends on how the harness slices the
  engine run, so the series pins that loop as well as the workload.
* ``migration-study``: two file-heavy cells that drain the event queue
  to completion before the migration planner snapshots the guest.

Each fixture records the figure's series, every cell's folded
``RunResult`` (timeline excluded: the series already carries it) and
every cell's ResultStore cache key, at scale 8.

Regenerate after an *intentional* behaviour change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/experiments/test_single_host_golden.py

and justify the diff in the PR description.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.exec.executor import run_sweep
from repro.exec.store import cell_key
from repro.experiments.registry import experiment

GOLDEN_SCALE = 8
DATA_DIR = Path(__file__).parent / "data"
GOLDEN_FILES = {
    "fig15": DATA_DIR / "fig15_golden_scale8.json",
    "migration-study": DATA_DIR / "migration_study_golden_scale8.json",
}


def _snapshot(experiment_id: str) -> dict:
    definition = experiment(experiment_id)
    sweep = definition.build_sweep(scale=GOLDEN_SCALE)
    outcome = run_sweep(sweep)
    figure = definition.assemble(sweep, outcome.results)
    # Round-trip through JSON so tuples and floats compare the way the
    # checked-in file stores them.
    return json.loads(json.dumps({
        "scale": GOLDEN_SCALE,
        "cell_keys": {cell.cell_id: cell_key(cell) for cell in sweep.cells},
        "cells": {cell_id: result.to_dict(include_timeline=False)
                  for cell_id, result in outcome.results.items()},
        "series": figure.series,
    }))


@pytest.mark.parametrize("experiment_id", sorted(GOLDEN_FILES))
def test_single_host_figure_matches_golden_snapshot(experiment_id):
    path = GOLDEN_FILES[experiment_id]
    current = _snapshot(experiment_id)
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {path}")
    assert path.exists(), (
        f"golden snapshot missing; regenerate with REPRO_REGEN_GOLDEN=1 "
        f"({path})")
    golden = json.loads(path.read_text())
    for field in sorted(set(golden) | set(current)):
        assert current.get(field) == golden.get(field), (
            f"{experiment_id}: {field} diverged from the golden snapshot")


def test_fig15_golden_timeline_has_a_tail():
    """The pinned fig15 timeline samples past the workload's end, so
    the fixture guards the run loop's slice length too."""
    golden = json.loads(GOLDEN_FILES["fig15"].read_text())
    (result,) = golden["cells"].values()
    assert not result["crashed"]
    assert golden["series"]["time"][-1] > result["runtime"]
