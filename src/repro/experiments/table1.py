"""Table 1: lines of code of VSwapper's components.

The paper reports the size of the real implementation (Mapper 409
lines, Preventer 1,974, total 2,383, split between QEMU userspace and
the kernel).  We reproduce the table by counting the lines of our own
implementation of each component next to the paper's numbers -- the
honest equivalent for a simulation-based reproduction.
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments.runner import FigureResult
from repro.metrics.report import Table

#: The paper's Table 1 (component -> (user, kernel, sum)).
PAPER_LOC = {
    "Mapper": (174, 235, 409),
    "Preventer": (10, 1964, 1974),
    "sum": (184, 2199, 2383),
}

#: Our implementation files per component.  The hypervisor integration
#: (the "kernel side") is shared, so it is attributed by the paper's
#: own split: the Preventer's logic lives mostly host-side.
COMPONENT_FILES = {
    "Mapper": ["core/mapper.py"],
    "Preventer": ["core/preventer.py"],
    "shared facade": ["core/vswapper.py", "core/__init__.py"],
}


def count_loc(path: Path) -> int:
    """Non-blank, non-comment-only source lines in ``path``."""
    lines = 0
    for raw in path.read_text().splitlines():
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            lines += 1
    return lines


def assemble_table1() -> FigureResult:
    """Build Table 1: paper LoC next to this reproduction's LoC.

    Pure static analysis: there is no sweep to execute or cache.
    """
    package_root = Path(__file__).resolve().parent.parent
    ours: dict[str, int] = {}
    for component, files in COMPONENT_FILES.items():
        ours[component] = sum(
            count_loc(package_root / rel) for rel in files)
    ours["sum"] = sum(ours.values())

    table = Table(
        "Table 1: VSwapper lines of code (paper) vs this reproduction",
        ["component", "paper user", "paper kernel", "paper sum",
         "repro LoC"],
    )
    for component in ("Mapper", "Preventer"):
        user, kernel, total = PAPER_LOC[component]
        table.add_row(component, user, kernel, total, ours[component])
    table.add_row("shared facade", "-", "-", "-", ours["shared facade"])
    user, kernel, total = PAPER_LOC["sum"]
    table.add_row("sum", user, kernel, total, ours["sum"])
    # JSON-safe series: the paper's (user, kernel, sum) tuples as lists.
    series = {
        "paper": {name: list(loc) for name, loc in PAPER_LOC.items()},
        "repro": ours,
    }
    return FigureResult("table1", series, table.render())
