"""Golden cache identity: every registry sweep's cell keys under the
run contexts the CLI builds.

A cell's cache key covers the two run-context fields that change
results: the fault plan and the swap backend.  The fixture maps every
registry experiment's sweep at scale 8 to its list of ``cell_key``\\ s
under three contexts -- the default, the CLI's ``--faults`` plan, and
``--swap-backend zram`` -- as produced by ``run all`` before the run
flags were folded into :class:`~repro.context.RunContext`.  It pins
the capture rules (a sweep built under a context carries its plan and
backend in every cell) and the hermetic cells that must not capture
them: cluster-chaos's fault-free ``none`` twin and swaptier's ``disk``
row.  A change to either rule, or to any spec field that feeds the
key, fails here.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import _run_context, build_parser
from repro.context import run_context
from repro.exec.store import cell_key
from repro.experiments.registry import EXPERIMENTS

GOLDEN_PATH = Path(__file__).parent / "data" / "cache_keys_scale8.json"

#: Fixture context name -> the ``run all`` flags that build it.
CONTEXT_FLAGS = {
    "default": [],
    "faults": ["--faults"],
    "swap_backend_zram": ["--swap-backend", "zram"],
}


def _cli_context(flags):
    return _run_context(build_parser().parse_args(["run", "all"] + flags))


def _sweep_keys(scale: int) -> dict[str, list[str]]:
    return {
        experiment_id: [cell_key(cell)
                        for cell in def_.build_sweep(scale=scale).cells]
        for experiment_id, def_ in sorted(EXPERIMENTS.items())
        if def_.build_sweep is not None
    }


@pytest.mark.parametrize("name", sorted(CONTEXT_FLAGS))
def test_cell_keys_match_the_golden_fixture(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    with run_context(_cli_context(CONTEXT_FLAGS[name])):
        keys = _sweep_keys(golden["scale"])
    assert keys == golden["contexts"][name]


def test_hermetic_cells_ignore_the_context():
    with run_context(_cli_context(["--faults"])):
        chaos = EXPERIMENTS["cluster-chaos"].build_sweep(scale=8)
    twins = [cell for cell in chaos.cells if cell.params["schedule"] == "none"]
    assert twins and all(cell.faults is None for cell in twins)

    with run_context(_cli_context(["--swap-backend", "zram"])):
        tier = EXPERIMENTS["swaptier"].build_sweep(scale=8)
    disk = [cell for cell in tier.cells if cell.cell_id.startswith("disk/")]
    assert disk and all(cell.backend is None for cell in disk)
