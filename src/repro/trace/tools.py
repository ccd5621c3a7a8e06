"""Store-backed trace tooling behind the ``trace`` CLI subcommand.

All three tools reconstruct the experiment's sweep from the registry
(same scale => same cell specs => same store keys) and pull each cell's
stored :class:`~repro.experiments.runner.RunResult` back out of the
:class:`~repro.exec.store.ResultStore`.  Cells whose stored result
carries no trace -- typically cache hits recorded by an untraced run --
are reported as ``trace unavailable (cached)`` and skipped; a tool
never fabricates an empty trace for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigError
from repro.exec.spec import CellSpec, Sweep
from repro.exec.store import ResultStore
from repro.metrics.report import Table
from repro.trace.analyzer import ROOT_CAUSES, TraceAnalyzer
from repro.trace.events import TraceData
from repro.trace.export import write_chrome_trace


@dataclass
class TracedCells:
    """Stored cells of one experiment, split by trace availability."""

    sweep: Sweep
    #: (spec, result) for every stored cell that carries a trace, in
    #: sweep (presentation) order.
    traced: list[tuple] = field(default_factory=list)
    #: Human-readable skip reasons for the rest, in sweep order.
    notes: list[str] = field(default_factory=list)


def load_traced_cells(store: ResultStore, experiment_id: str, *,
                      scale: int) -> TracedCells:
    """Resolve one experiment's stored, traced cells."""
    # Deferred: the registry imports the experiment modules, which
    # reach back into exec/ (and would cycle at import time).
    from repro.experiments.registry import experiment

    definition = experiment(experiment_id)
    if definition.build_sweep is None:
        raise ConfigError(
            f"experiment {experiment_id!r} declares no cells; "
            f"there is nothing to trace")
    sweep = definition.build_sweep(scale=scale)
    cells = TracedCells(sweep)
    for spec in sweep.cells:
        result = store.load_cell(spec)
        if result is None:
            cells.notes.append(
                f"cell {spec.cell_id}: not in store (run "
                f"'run {experiment_id} --trace --results-dir ...' first)")
        elif result.trace is None:
            cells.notes.append(
                f"cell {spec.cell_id}: trace unavailable (cached)")
        else:
            cells.traced.append((spec, result))
    return cells


def _require_traced(cells: TracedCells, experiment_id: str) -> None:
    if not cells.traced:
        detail = "; ".join(cells.notes) or "store is empty"
        raise ConfigError(
            f"no stored traces for {experiment_id!r} at this scale "
            f"({detail}); refusing to write an empty trace")


def export_experiment(store: ResultStore, experiment_id: str, *,
                      scale: int, out: str | Path) -> tuple[Path, list[str]]:
    """Merge every stored trace of one experiment into a Chrome trace.

    Returns the written path plus the per-cell skip notes.  Raises
    :class:`~repro.errors.ConfigError` when *no* cell has a trace --
    an empty export would read as "nothing happened", which is wrong.
    """
    cells = load_traced_cells(store, experiment_id, scale=scale)
    _require_traced(cells, experiment_id)
    path = write_chrome_trace(out, [
        (spec.cell_id, result.trace) for spec, result in cells.traced])
    return path, cells.notes


@dataclass
class AnalysisReport:
    """Outcome of ``trace analyze``: per-cell counts and mismatches."""

    experiment_id: str
    rendered: str
    #: Cross-check disagreement lines, per cell id (empty = all exact).
    mismatches: dict[str, list[str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every traced cell cross-checked exactly."""
        return not self.mismatches


def analyze_experiment(store: ResultStore, experiment_id: str, *,
                       scale: int) -> AnalysisReport:
    """Re-derive the five root-cause counts per cell and cross-check
    them against the stored counters."""
    cells = load_traced_cells(store, experiment_id, scale=scale)
    _require_traced(cells, experiment_id)
    table = Table(
        f"{experiment_id}: root causes re-derived from the trace",
        ["cell", *ROOT_CAUSES, "vs counters"])
    mismatches: dict[str, list[str]] = {}
    for spec, result in cells.traced:
        analyzer = TraceAnalyzer(result.trace)
        counts = analyzer.root_causes()
        issues = analyzer.cross_check(result.counters)
        if issues:
            mismatches[spec.cell_id] = issues
        table.add_row(
            spec.cell_id, *(counts[name] for name in ROOT_CAUSES),
            "exact" if not issues else f"{len(issues)} mismatch(es)")
    lines = [table.render()]
    for cell_id, issues in mismatches.items():
        lines.extend(f"  {cell_id}: {issue}" for issue in issues)
    return AnalysisReport(experiment_id, "\n".join(lines),
                          mismatches, cells.notes)


def top_spans_report(store: ResultStore, experiment_id: str, *,
                     scale: int, limit: int = 10) -> tuple[str, list[str]]:
    """Rank the spans that caused the most host-side events."""
    cells = load_traced_cells(store, experiment_id, scale=scale)
    _require_traced(cells, experiment_id)
    table = Table(
        f"{experiment_id}: guest operations causing the most host work",
        ["cell", "span", "op", "begin[s]", "dur[s]", "events"])
    for spec, result in cells.traced:
        analyzer = TraceAnalyzer(result.trace)
        for span, caused in analyzer.top_spans(limit):
            table.add_row(
                spec.cell_id, span.sid, span.name,
                round(span.begin, 4), round(span.duration, 4), caused)
    return table.render(), cells.notes


#: Re-exported for callers that only need the data-model types.
__all__ = [
    "AnalysisReport",
    "TracedCells",
    "analyze_experiment",
    "export_experiment",
    "load_traced_cells",
    "top_spans_report",
    "TraceData",
    "CellSpec",
]
