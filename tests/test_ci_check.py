"""The CI log and store checks in tools/ci_check.py."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ci_check.py"
_SPEC = importlib.util.spec_from_file_location("ci_check", _PATH)
ci_check = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ci_check)

ONE_CACHED = (
    "[cluster: regenerated in 0.2s wall time; cells=19 executed=0 "
    "cached=19 retried=0 quarantined=0 (cached, 0 executed; originally "
    "181.4s wall time)]\n")
ALL_CACHED = (
    "[fig03: regenerated in 0.1s wall time; cells=4 executed=0 cached=4 "
    "retried=0 quarantined=0 (cached, 0 executed; originally 3.0s wall "
    "time)]\n"
    "[all: cells=213 executed=0 cached=213 retried=0 quarantined=0 "
    "cached-wall=540.2s]\n")


def test_resume_reads_single_experiment_and_all_totals():
    assert ci_check.sweep_totals(ONE_CACHED, "cluster") == {
        "cells": 19, "executed": 0, "cached": 19, "retried": 0,
        "quarantined": 0}
    assert ci_check.sweep_totals(ALL_CACHED, "all")["cells"] == 213
    assert "213 all cells" in ci_check.check_resume(ALL_CACHED, "all")
    ci_check.check_resume(ONE_CACHED, "cluster")


@pytest.mark.parametrize("log, match", [
    ("no totals here", "missing swaptier totals"),
    ("[swaptier: regenerated in 9.0s wall time; cells=12 executed=3 "
     "cached=9 retried=0 quarantined=0]", "re-executed 3"),
    ("[swaptier: regenerated in 0.0s wall time; cells=0 executed=0 "
     "cached=0 retried=0 quarantined=0]", "missed the cache"),
    ("[swaptier: regenerated in 0.1s wall time; cells=12 executed=0 "
     "cached=12 retried=0 quarantined=0]", "label"),
], ids=["no-totals", "re-executed", "empty", "no-label"])
def test_resume_failures(log, match):
    with pytest.raises(ci_check.CheckFailed, match=match):
        ci_check.check_resume(log, "swaptier")


def _store(root: Path, figures: dict) -> Path:
    (root / "figures").mkdir(parents=True)
    for name, doc in figures.items():
        (root / "figures" / f"{name}.json").write_text(json.dumps(doc))
    return root


def test_figures_identical_and_divergent(tmp_path):
    doc = {"figure": {"series": [1, 2]}, "cell_keys": ["a", "b"]}
    ref = _store(tmp_path / "ref", {"fig09": doc, "cluster": doc})
    same = _store(tmp_path / "same", {"fig09": doc, "cluster": doc})
    assert "2 identical" in ci_check.check_figures(ref, same,
                                                   require="cluster")
    with pytest.raises(ci_check.CheckFailed, match="missing"):
        ci_check.check_figures(ref, same, require="swaptier")
    fewer = _store(tmp_path / "fewer", {"fig09": doc})
    with pytest.raises(ci_check.CheckFailed, match="sets differ"):
        ci_check.check_figures(ref, fewer)
    moved = _store(tmp_path / "moved", {
        "fig09": doc, "cluster": dict(doc, cell_keys=["a", "c"])})
    with pytest.raises(ci_check.CheckFailed, match="cell keys"):
        ci_check.check_figures(ref, moved)
    with pytest.raises(ci_check.CheckFailed, match="no figures"):
        ci_check.check_figures(_store(tmp_path / "empty", {}), same)


def test_main_exit_codes(tmp_path, capsys):
    log = tmp_path / "resume.log"
    log.write_text(ONE_CACHED)
    assert ci_check.main(["resume", str(log), "cluster"]) == 0
    assert "resume OK" in capsys.readouterr().out
    assert ci_check.main(["resume", str(log), "swaptier"]) == 1
    assert "check failed" in capsys.readouterr().err


def _all_line(cells, executed, cached, retried, quarantined):
    return (f"[all: cells={cells} executed={executed} cached={cached} "
            f"retried={retried} quarantined={quarantined} "
            f"cached-wall=12.5s]\n")


def test_chaos_passes_when_kills_struck_and_resume_reused_survivors():
    first = _all_line(213, 212, 0, 5, 1)
    resume = _all_line(213, 1, 212, 0, 0)
    summary = ci_check.check_chaos(first, resume)
    assert "5 retried, 1 quarantined of 213" in summary
    assert "212 from cache" in summary


@pytest.mark.parametrize("first, resume, match", [
    (_all_line(213, 213, 0, 0, 0), _all_line(213, 0, 213, 0, 0),
     "never struck"),
    (_all_line(213, 213, 0, 3, 0), _all_line(213, 2, 210, 0, 0),
     "re-ran completed cells"),
    (_all_line(1, 0, 0, 1, 1), _all_line(1, 0, 0, 0, 1),
     "served nothing"),
    ("no totals", _all_line(213, 0, 213, 0, 0), "missing all totals"),
], ids=["never-struck", "re-ran", "nothing-cached", "no-totals"])
def test_chaos_failures(first, resume, match):
    with pytest.raises(ci_check.CheckFailed, match=match):
        ci_check.check_chaos(first, resume)


def _payloads(root: Path, docs: dict) -> Path:
    root.mkdir()
    for name, doc in docs.items():
        (root / f"BENCH_{name}.json").write_text(json.dumps(doc))
    return root


FIGURE_PAYLOAD = {"python": "3.11.7", "figure_id": "fig09",
                  "cell_wall_seconds": {"baseline": 1.5}}
SUITE_PAYLOAD = {"python": "3.11.7", "suite": "hotpath",
                 "ops": {"scan": 1e-6}}


def test_payloads_pass_for_stamped_figure_and_suite_payloads(tmp_path):
    root = _payloads(tmp_path / "ok", {"fig09": FIGURE_PAYLOAD,
                                       "hotpath": SUITE_PAYLOAD})
    assert ci_check.check_payloads(root) == "timings OK: 2 BENCH payloads"


@pytest.mark.parametrize("doc, match", [
    (dict(FIGURE_PAYLOAD, python=""), "interpreter stamp"),
    (dict(FIGURE_PAYLOAD, cell_wall_seconds={}), "no cell timings"),
    ({"python": "3.11.7", "cell_wall_seconds": {"a": 1.0}}, "figure id"),
    (dict(SUITE_PAYLOAD, ops={}), "no primitive timings"),
], ids=["unstamped", "no-timings", "no-figure-id", "no-ops"])
def test_payloads_failures(tmp_path, doc, match):
    root = _payloads(tmp_path / "bad", {"fig09": FIGURE_PAYLOAD,
                                        "broken": doc})
    with pytest.raises(ci_check.CheckFailed, match=match):
        ci_check.check_payloads(root)


def test_payloads_fail_on_an_empty_directory(tmp_path):
    with pytest.raises(ci_check.CheckFailed, match="no BENCH"):
        ci_check.check_payloads(_payloads(tmp_path / "empty", {}))


BENCH_OK = (
    "workload mapreduce: vswapper@10, balloon+vswap@10\n"
    "  error_rate 0/4 = 0.0000\n"
    '{"correct": true, "attempted": 4, "failed": 0, "metrics": {}}\n')


def test_bench_accepts_a_correct_run(tmp_path, capsys):
    assert ci_check.check_bench(BENCH_OK) == "bench OK: 4 runs, all correct"
    log = tmp_path / "bench.log"
    log.write_text(BENCH_OK)
    assert ci_check.main(["bench", str(log)]) == 0
    assert "bench OK" in capsys.readouterr().out


@pytest.mark.parametrize("log, match", [
    ("", "empty"),
    ("  error_rate 0/4 = 0.0000\n", "not the JSON result"),
    ('[1, 2]\n', "not a JSON object"),
    ('{"correct": false, "attempted": 4, "failed": 1}', "not correct"),
    ('{"correct": true, "attempted": 4, "failed": 2}', "2 of 4 runs failed"),
    ('{"correct": true, "attempted": 0, "failed": 0}', "no runs"),
    (BENCH_OK + "Traceback (most recent call last):\n", "not the JSON"),
], ids=["empty", "no-json", "not-object", "incorrect", "failed", "no-runs",
        "crashed-after"])
def test_bench_failures(log, match, tmp_path):
    with pytest.raises(ci_check.CheckFailed, match=match):
        ci_check.check_bench(log)
    path = tmp_path / "bench.log"
    path.write_text(log)
    assert ci_check.main(["bench", str(path)]) == 1


def test_loc_counts_python_files_and_lines(tmp_path, capsys):
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "pkg" / "sub" / "b.py").write_text('"""Doc."""\n\n\nz = 3\n')
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n" * 9)
    assert ci_check.count_lines(tmp_path / "pkg") == {"files": 2, "lines": 6}
    assert ci_check.main(["loc", str(tmp_path / "pkg")]) == 0
    assert json.loads(capsys.readouterr().out) == {"files": 2, "lines": 6}


def test_loc_fails_on_a_directory_without_python(tmp_path):
    with pytest.raises(ci_check.CheckFailed, match=r"no \*\.py files"):
        ci_check.count_lines(tmp_path)
    assert ci_check.main(["loc", str(tmp_path)]) == 1


def test_loc_counts_dataclass_fields_of_config(tmp_path, capsys):
    (tmp_path / "config.py").write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass, field\n"
        "from typing import ClassVar\n\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    x: int = 1\n"
        "    y: list = field(default_factory=list)\n"
        "    KINDS: ClassVar[tuple] = ()\n"
        "    plain = 3\n\n"
        "    def method(self) -> None:\n"
        "        local: int = 0\n\n"
        "@dataclasses.dataclass\n"
        "class B:\n"
        "    z: str\n\n"
        "class NotADataclass:\n"
        "    w: int = 0\n")
    assert ci_check.count_config_fields(
        (tmp_path / "config.py").read_text()) == 3
    assert ci_check.main(["loc", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "files": 1, "lines": 20, "config_fields": 3}


def test_loc_reports_the_repository_config_fields():
    counts = ci_check.count_lines(_PATH.parents[1] / "src" / "repro")
    assert counts["config_fields"] > 0
