"""Checks the CI jobs run against sweep logs and result stores.

Two subcommands::

    python tools/ci_check.py resume LOG EXPERIMENT
    python tools/ci_check.py figures REF_DIR GOT_DIR [--require NAME]

``resume`` reads the totals line ``run EXPERIMENT --resume`` printed
(``EXPERIMENT`` may be ``all``) and demands that every cell came from
the cache: ``executed == 0`` and ``cached == cells > 0``, and the log
carries the CLI's ``cached, 0 executed`` note.

``figures`` compares the figure JSONs two result stores persisted
under ``figures/``: both must hold the same non-empty set of files,
and each pair must agree on its ``figure`` payload and ``cell_keys``.
``--require NAME`` also demands that ``NAME.json`` is among them.

Exits 0 with a one-line summary, or 1 with the first failed check.
"""

from __future__ import annotations

import argparse
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
    args = parser.parse_args(argv)
    try:
        if args.command == "resume":
            summary = check_resume(args.log.read_text(), args.experiment)
        else:
            summary = check_figures(args.ref, args.got, require=args.require)
    except CheckFailed as failure:
        print(f"check failed: {failure}", file=sys.stderr)
        return 1
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
