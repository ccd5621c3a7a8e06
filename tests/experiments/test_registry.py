"""Experiment registry and CLI."""

import pytest

from repro.cli import build_parser, main
from repro.errors import ExperimentError
from repro.exec.store import ResultStore
from repro.experiments.registry import (
    CELL_RUNNERS,
    EXPERIMENTS,
    cell_count,
    cell_runner,
    describe,
    experiment,
    experiment_ids,
    run_experiment,
)
from repro.trace.tools import load_traced_cells

#: Every table/figure in the paper's evaluation must be reproducible.
PAPER_RESULTS = [
    "fig3", "fig4", "fig5", "fig9", "fig10", "fig11", "fig12",
    "fig13", "fig14", "fig15", "table1", "table2",
]


def test_all_paper_results_registered():
    for result_id in PAPER_RESULTS:
        assert result_id in EXPERIMENTS, f"missing {result_id}"


def test_extra_sections_registered():
    assert "sec5.3" in EXPERIMENTS
    assert "sec5.4" in EXPERIMENTS


def test_ablations_registered():
    assert any(k.startswith("ablation-") for k in EXPERIMENTS)


def test_experiment_ids_sorted():
    ids = experiment_ids()
    assert ids == sorted(ids)


def test_unknown_experiment_rejected():
    with pytest.raises(ExperimentError):
        run_experiment("fig99")


def test_run_experiment_table1():
    result = run_experiment("table1")
    assert "Mapper" in result.rendered
    assert result.series["paper"]["sum"][2] == 2383


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig3" in out
    assert "table2" in out


def test_cli_run_table1(capsys):
    assert main(["run", "table1"]) == 0
    out = capsys.readouterr().out
    assert "Preventer" in out
    assert "regenerated" in out


def test_cli_unknown_experiment(capsys):
    assert main(["run", "fig99"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_parser_defaults():
    args = build_parser().parse_args(["run", "fig3"])
    assert args.scale == 4
    assert args.jobs == 1
    assert args.results_dir is None
    assert args.resume is False
    assert args.timeout is None
    assert args.retries is None
    assert args.kill_workers == 0.0
    assert args.paranoid is False


def test_cli_supervision_flag_validation():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "fig3", "--timeout", "0"])
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "fig3", "--retries", "-1"])
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "fig3", "--kill-workers", "1.5"])
    args = parser.parse_args(
        ["run", "fig3", "--timeout", "2.5", "--retries", "0",
         "--kill-workers", "0.25", "--paranoid"])
    assert (args.timeout, args.retries) == (2.5, 0)
    assert args.kill_workers == 0.25 and args.paranoid


def test_every_declared_sweep_has_a_cell_runner():
    cells_by_harness = {}
    for definition in EXPERIMENTS.values():
        if definition.build_sweep is None:
            continue
        sweep = definition.build_sweep(scale=8)
        assert sweep.cells, definition.experiment_id
        assert sweep.experiment_id == definition.harness_id
        assert cell_runner(sweep.experiment_id) is \
            CELL_RUNNERS[sweep.experiment_id] is definition.cell
        # Rows sharing a harness id share one cell runner.
        assert cells_by_harness.setdefault(
            definition.harness_id, definition.cell) is definition.cell
    assert set(cells_by_harness) == set(CELL_RUNNERS)


def test_unknown_sweep_keyword_is_refused_before_any_cell_runs(
        tmp_path, monkeypatch):
    def must_not_run(spec):
        raise AssertionError(f"cell {spec.cell_id} ran")

    monkeypatch.setitem(CELL_RUNNERS, "fig10", must_not_run)
    store = ResultStore(tmp_path / "store")
    with pytest.raises(TypeError, match="windows"):
        run_experiment("fig10", scale=8, windows=(1,), store=store)
    assert not [path for path in tmp_path.rglob("*") if path.is_file()]


def test_trace_tools_share_the_experiment_lookup(tmp_path):
    assert experiment("fig9") is EXPERIMENTS["fig9"]
    with pytest.raises(ExperimentError, match="unknown experiment 'fig99'"):
        load_traced_cells(ResultStore(tmp_path), "fig99", scale=8)


def test_cell_runner_unknown_harness():
    with pytest.raises(ExperimentError):
        cell_runner("no-such-harness")


def test_descriptions_and_cell_counts():
    assert describe("fig9")
    assert cell_count("fig9", scale=8) == 3   # one cell per config
    assert cell_count("fig3", scale=8) == 4
    assert cell_count("table1") == 0          # cell-less static result
    with pytest.raises(ExperimentError):
        describe("fig99")


def test_shared_harnesses_share_cell_identity():
    fig5 = EXPERIMENTS["fig5"].build_sweep(scale=8)
    fig11 = EXPERIMENTS["fig11"].build_sweep(scale=8)
    assert fig5 == fig11  # identical sweeps -> shared cache entries


def test_cli_list_shows_descriptions_and_cell_counts(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "cells=" in out
    for line_start in ("fig3", "table1", "chaos"):
        assert any(line.startswith(line_start)
                   for line in out.splitlines())
    assert describe("fig9") in out


def test_cli_rejects_nonpositive_jobs():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "fig3", "--jobs", "0"])


def test_cli_resume_requires_results_dir(capsys):
    assert main(["run", "fig3", "--resume"]) == 1
    err = capsys.readouterr().err
    assert "error" in err and "--results-dir" in err


def test_cli_run_persists_and_resumes(tmp_path, capsys):
    results_dir = str(tmp_path / "store")
    scale_args = ["--scale", "16", "--results-dir", results_dir]
    assert main(["run", "fig3", *scale_args]) == 0
    first = capsys.readouterr().out
    assert "executed=4 cached=0" in first

    assert main(["run", "fig3", *scale_args, "--resume"]) == 0
    second = capsys.readouterr().out
    assert "executed=0 cached=4" in second
    # A fully-cached resume is labelled, with the stored wall time the
    # cells originally cost (never a near-zero "run time").
    assert "cached, 0 executed" in second
    assert "originally" in second


def test_cli_summary_reports_supervision_counts(capsys):
    assert main(["run", "fig3", "--scale", "16", "--timeout", "300"]) == 0
    out = capsys.readouterr().out
    assert "retried=0 quarantined=0" in out


def test_run_experiment_accepts_exec_kwargs():
    result = run_experiment("table1", executor=None, store=None)
    assert "Mapper" in result.rendered
