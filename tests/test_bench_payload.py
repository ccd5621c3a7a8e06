"""The benchmark suite's per-cell timing payload.

fig3 and fig9 share the ``fig09`` harness id and their cell ids
collide (fig3's one-iteration ``baseline`` vs fig9's eight-iteration
``baseline``), so a figure's timings must come from its own sweep's
cells by content key, never from whichever record shares the id.
"""

from benchmarks.conftest import _cell_walls, _timings_payload
from repro.exec.store import ResultStore
from repro.experiments.fig09 import build_fig03_sweep, build_fig09_sweep
from repro.experiments.runner import (
    ConfigName,
    FigureResult,
    RunResult,
    SweepStats,
)

SCALE = 8


def _store_sweep(store: ResultStore, sweep, wall: float) -> None:
    for spec in sweep.cells:
        result = RunResult(config=ConfigName(spec.config), runtime=1.0,
                           crashed=False, counters={})
        store.store_cell(spec, result, wall)


def test_shared_harness_timings_come_from_the_figures_own_cells(tmp_path):
    store = ResultStore(tmp_path)
    fig3 = build_fig03_sweep(scale=SCALE)
    fig9 = build_fig09_sweep(scale=SCALE)
    # Same cell ids, different specs: both records live side by side.
    assert {c.cell_id for c in fig9.cells} <= {c.cell_id for c in fig3.cells}
    _store_sweep(store, fig3, wall=1.0)
    _store_sweep(store, fig9, wall=8.0)

    stats = SweepStats(experiment_id="fig09", cells=len(fig3), executed=4,
                       cached=0)
    figure = FigureResult("fig03", {}, "", stats=stats)
    walls = _cell_walls(figure, store, fig3)
    assert walls == {cell.cell_id: 1.0 for cell in fig3.cells}
    payload = _timings_payload(figure, walls)
    assert payload["cell_wall_seconds"] == walls
    assert payload["stats"]["experiment_id"] == "fig09"

    figure9 = FigureResult("fig09", {}, "", stats=stats)
    assert _cell_walls(figure9, store, fig9) == {
        cell.cell_id: 8.0 for cell in fig9.cells}
