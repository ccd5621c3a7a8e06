"""Per-cell profiling (the ``repro run --profile`` flag).

Performance work on the simulator is only as good as its visibility:
the hot-path rewrite that produced DESIGN.md section 12 was steered
entirely by per-cell call-count censuses, and future perf PRs need the
same lever without reconstructing the harness by hand.  ``--profile``
wraps every cell runner in :mod:`cProfile` and persists a three-view
hot-function report (cumulative time, internal time, call counts)
named exactly like the cell's store record, so a profile can always be
matched to the result it explains.

The profile destination is the run context's ``profile_dir`` field
(:class:`~repro.context.RunContext`):
:func:`~repro.exec.executor.execute_cell` checks it per cell, and the
executors ship the context to their workers, so ``--profile --jobs N``
profiles every worker.

Profiling is observational only: the runner, its RNG draws, and the
returned :class:`~repro.experiments.runner.RunResult` are untouched,
so profiled results stay bit-identical to unprofiled ones (cProfile
adds wall time, which only ever appears outside the result payload).
"""

from __future__ import annotations

import cProfile
import io
import pstats
from pathlib import Path

from repro.context import current_context

#: Hot functions listed under each sort order of the report.
REPORT_LINES = 30


def profiling_dir() -> str | None:
    """Where cell profiles are written, or ``None`` when off."""
    return current_context().profile_dir


def profile_report_path(spec) -> Path:
    """Where ``spec``'s profile report lands.

    Mirrors :meth:`ResultStore.cell_path` naming --
    ``<dir>/<experiment>/<cell-id>-<hash12>.txt`` with the same
    content-hash suffix -- so the profile sits beside (and keys to)
    the cell record it explains.
    """
    from repro.exec.store import _sanitize, cell_key

    directory = profiling_dir()
    if directory is None:
        raise RuntimeError("profiling is not enabled")
    return (Path(directory) / _sanitize(spec.experiment_id)
            / f"{_sanitize(spec.cell_id)}-{cell_key(spec)[:12]}.txt")


def render_report(profile: cProfile.Profile, spec) -> str:
    """The persisted report: one header, three sorted views.

    Cumulative time finds the expensive subsystems, internal time the
    expensive functions, and call counts the fusion opportunities (a
    million cheap calls cost more than their bodies -- see DESIGN.md
    section 12's methodology notes).
    """
    buffer = io.StringIO()
    buffer.write(
        f"profile: experiment={spec.experiment_id} cell={spec.cell_id} "
        f"seed={spec.seed}\n")
    stats = pstats.Stats(profile, stream=buffer)
    stats.sort_stats("cumulative").print_stats(REPORT_LINES)
    buffer.write("-- by internal time --\n")
    stats.sort_stats("tottime").print_stats(REPORT_LINES)
    buffer.write("-- by call count --\n")
    stats.sort_stats("ncalls").print_stats(REPORT_LINES)
    return buffer.getvalue()


def profile_runner(runner, spec):
    """Run ``runner(spec)`` under cProfile, persist the report, and
    return the runner's result unchanged.

    A report that fails to write (read-only directory, disk full) is
    a harness inconvenience, not a cell failure: the exception
    propagates only after the cell's result exists, and executors
    treat it like any other harness error.
    """
    profile = cProfile.Profile()
    result = profile.runcall(runner, spec)
    path = profile_report_path(spec)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_report(profile, spec))
    return result


__all__ = [
    "profile_report_path",
    "profile_runner",
    "profiling_dir",
    "render_report",
]
