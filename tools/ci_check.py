"""Checks the CI jobs run against sweep logs, result stores and
benchmark payloads.

Six subcommands::

    python tools/ci_check.py resume LOG EXPERIMENT
    python tools/ci_check.py figures REF_DIR GOT_DIR [--require NAME]
    python tools/ci_check.py chaos FIRST_LOG RESUME_LOG
    python tools/ci_check.py payloads DIR
    python tools/ci_check.py bench LOG
    python tools/ci_check.py loc DIR

``resume`` reads the totals line ``run EXPERIMENT --resume`` printed
(``EXPERIMENT`` may be ``all``) and demands that every cell came from
the cache: ``executed == 0`` and ``cached == cells > 0``, and the log
carries the CLI's ``cached, 0 executed`` note.

``figures`` compares the figure JSONs two result stores persisted
under ``figures/``: both must hold the same non-empty set of files,
and each pair must agree on its ``figure`` payload and ``cell_keys``.
``--require NAME`` also demands that ``NAME.json`` is among them.

``chaos`` reads the ``all`` totals lines of a worker-kill sweep and of
its ``--resume`` rerun.  The first run must have retried or
quarantined at least one cell.  The rerun must serve at least
``cells - quarantined - executed`` cells from the cache, and more than
none: quarantined cells were never stored, so it may re-run those.

``payloads`` checks the ``BENCH_*.json`` files a benchmark run wrote
into DIR: there is at least one, each carries an interpreter stamp,
primitive suites (``hotpath``, ``swapback``) list their op timings,
and figure payloads name their figure and hold per-cell timings.

``bench`` reads the report ``perfbench/run.py`` printed: its last line
must be the JSON result, with ``correct`` true, at least one attempted
cell run and ``failed == 0``.  A cell that raised, a simulated counter
that broke a workload check, or a renamed span boundary (which crashes
every traced run) all fail it.

``loc`` reports the size metrics the ROADMAP tracks: the number of
``*.py`` files under DIR and their total line count, printed as one
JSON object ``{"files": N, "lines": M, "config_fields": F}``.  ``F``
counts the fields of the ``@dataclass`` classes in ``DIR/config.py``,
read from its syntax tree without importing it; the key is absent when
there is no such file.  It gates on nothing.

Exits 0 with a one-line summary, or 1 with the first failed check.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from pathlib import Path

ALL_CACHED_LABEL = "cached, 0 executed"


class CheckFailed(Exception):
    """A CI assertion did not hold."""


def sweep_totals(log: str, experiment: str) -> dict[str, int]:
    """The cell counts of ``experiment``'s totals line in ``log``."""
    match = re.search(
        rf"\[{re.escape(experiment)}: "
        r"(?:regenerated in [\d.]+s wall time; )?"
        r"cells=(\d+) executed=(\d+) cached=(\d+) "
        r"retried=(\d+) quarantined=(\d+)", log)
    if match is None:
        raise CheckFailed(f"missing {experiment} totals line")
    names = ("cells", "executed", "cached", "retried", "quarantined")
    return dict(zip(names, map(int, match.groups())))


def check_resume(log: str, experiment: str) -> str:
    """Every cell of a resumed sweep was served from the cache."""
    totals = sweep_totals(log, experiment)
    if totals["executed"] != 0:
        raise CheckFailed(
            f"resume re-executed {totals['executed']} cells: {totals}")
    if not totals["cached"] == totals["cells"] > 0:
        raise CheckFailed(f"resume missed the cache: {totals}")
    if ALL_CACHED_LABEL not in log:
        raise CheckFailed(f"missing {ALL_CACHED_LABEL!r} label")
    return (f"resume OK: all {totals['cells']} {experiment} cells "
            f"served from cache")


def check_figures(ref: Path, got: Path, *,
                  require: str | None = None) -> str:
    """Two stores persisted identical figures."""
    names = sorted(p.name for p in (ref / "figures").glob("*.json"))
    if not names:
        raise CheckFailed(f"{ref} holds no figures")
    got_names = sorted(p.name for p in (got / "figures").glob("*.json"))
    if names != got_names:
        raise CheckFailed(f"figure sets differ: {names} vs {got_names}")
    if require is not None and f"{require}.json" not in names:
        raise CheckFailed(f"{require}.json missing from {ref}")
    for name in names:
        a = json.loads((ref / "figures" / name).read_text())
        b = json.loads((got / "figures" / name).read_text())
        if a["figure"] != b["figure"]:
            raise CheckFailed(f"{name}: figure payload differs")
        if a["cell_keys"] != b["cell_keys"]:
            raise CheckFailed(f"{name}: cell keys differ")
    return f"figures OK: {len(names)} identical to the reference"


def check_chaos(first: str, resume: str) -> str:
    """Worker-kill chaos struck, and its resume reused the survivors."""
    totals = sweep_totals(first, "all")
    if totals["retried"] + totals["quarantined"] < 1:
        raise CheckFailed(f"worker-kill chaos never struck a cell: {totals}")
    again = sweep_totals(resume, "all")
    if again["cached"] < (again["cells"] - again["quarantined"]
                          - again["executed"]):
        raise CheckFailed(f"resume re-ran completed cells: {again}")
    if again["cached"] <= 0:
        raise CheckFailed(f"resume served nothing from cache: {again}")
    return (f"chaos OK: {totals['retried']} retried, "
            f"{totals['quarantined']} quarantined of {totals['cells']} "
            f"cells; resume served {again['cached']} from cache")


PRIMITIVE_SUITES = ("hotpath", "swapback")


def check_payloads(directory: Path) -> str:
    """Every benchmark payload is stamped and holds its timings."""
    paths = sorted(directory.glob("BENCH_*.json"))
    if not paths:
        raise CheckFailed(f"no BENCH_*.json written under {directory}")
    for path in paths:
        try:
            doc = json.loads(path.read_text())
        except ValueError as error:
            raise CheckFailed(f"{path.name}: not JSON ({error})") from None
        if not doc.get("python"):
            raise CheckFailed(f"{path.name}: missing interpreter stamp")
        if doc.get("suite") in PRIMITIVE_SUITES:
            if not doc.get("ops"):
                raise CheckFailed(f"{path.name}: no primitive timings")
            continue
        if not doc.get("figure_id"):
            raise CheckFailed(f"{path.name}: missing figure id")
        if not doc.get("cell_wall_seconds"):
            raise CheckFailed(f"{path.name}: no cell timings")
    return f"timings OK: {len(paths)} BENCH payloads"


def check_bench(log: str) -> str:
    """A benchmark run ended with a correct, failure-free result."""
    lines = log.strip().splitlines()
    if not lines:
        raise CheckFailed("empty benchmark log")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        raise CheckFailed("last line is not the JSON result") from None
    if not isinstance(result, dict):
        raise CheckFailed("last line is not a JSON object")
    attempted = result.get("attempted", 0)
    failed = result.get("failed")
    if result.get("correct") is not True:
        raise CheckFailed(f"benchmark not correct: {failed} of "
                          f"{attempted} runs failed")
    if failed != 0:
        raise CheckFailed(f"{failed} of {attempted} runs failed")
    if not attempted:
        raise CheckFailed("benchmark attempted no runs")
    return f"bench OK: {attempted} runs, all correct"


def _is_dataclass_decorator(node: ast.expr) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr == "dataclass"
    return isinstance(node, ast.Name) and node.id == "dataclass"


def _is_classvar(annotation: ast.expr) -> bool:
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    if isinstance(annotation, ast.Attribute):
        return annotation.attr == "ClassVar"
    return isinstance(annotation, ast.Name) and annotation.id == "ClassVar"


def count_config_fields(source: str) -> int:
    """Fields of the ``@dataclass`` classes defined in ``source``."""
    return sum(
        1
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        and any(map(_is_dataclass_decorator, node.decorator_list))
        for statement in node.body
        if isinstance(statement, ast.AnnAssign)
        and isinstance(statement.target, ast.Name)
        and not _is_classvar(statement.annotation))


def count_lines(directory: Path) -> dict[str, int]:
    """``*.py`` files under ``directory``, their total lines, and the
    dataclass fields of ``directory/config.py`` when it exists."""
    paths = sorted(directory.rglob("*.py"))
    if not paths:
        raise CheckFailed(f"no *.py files under {directory}")
    lines = sum(len(path.read_bytes().splitlines()) for path in paths)
    counts = {"files": len(paths), "lines": lines}
    config = directory / "config.py"
    if config.is_file():
        counts["config_fields"] = count_config_fields(config.read_text())
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    resume = commands.add_parser("resume", help="a resume hit the cache")
    resume.add_argument("log", type=Path)
    resume.add_argument("experiment")
    figures = commands.add_parser("figures", help="two stores agree")
    figures.add_argument("ref", type=Path)
    figures.add_argument("got", type=Path)
    figures.add_argument("--require")
    chaos = commands.add_parser("chaos", help="worker-kill chaos recovered")
    chaos.add_argument("first", type=Path)
    chaos.add_argument("resume", type=Path)
    payloads = commands.add_parser("payloads", help="BENCH payloads")
    payloads.add_argument("directory", type=Path)
    bench = commands.add_parser("bench", help="a perfbench run was correct")
    bench.add_argument("log", type=Path)
    loc = commands.add_parser("loc", help="count python files and lines")
    loc.add_argument("directory", type=Path)
    args = parser.parse_args(argv)
    try:
        if args.command == "resume":
            summary = check_resume(args.log.read_text(), args.experiment)
        elif args.command == "figures":
            summary = check_figures(args.ref, args.got, require=args.require)
        elif args.command == "chaos":
            summary = check_chaos(args.first.read_text(),
                                  args.resume.read_text())
        elif args.command == "bench":
            summary = check_bench(args.log.read_text())
        elif args.command == "loc":
            summary = json.dumps(count_lines(args.directory))
        else:
            summary = check_payloads(args.directory)
    except CheckFailed as failure:
        print(f"check failed: {failure}", file=sys.stderr)
        return 1
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
