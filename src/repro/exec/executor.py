"""Cell executors and the sweep driver.

Both executors run the same pure function, :func:`execute_cell`, over
:class:`~repro.exec.spec.CellSpec`\\ s.  Each cell builds its own seeded
:class:`~repro.cluster.Cluster`, so cells share no state:
:class:`SerialExecutor` runs them in this process, and the
:class:`~repro.exec.supervisor.CellSupervisor` pool runs them on warm
worker processes with bit-identical results, gathered back into sweep
order regardless of completion order (a property test enforces the
equality).

Both executors treat a raised error the same way: it aborts the sweep.
Expected failures -- injected faults, OOM kills, swap-budget
exhaustion -- never raise; the harness reports them as crashed or
degraded *cells* (``RunResult.status``).  What still raises is a bug
(``ExperimentError``, ``ConfigError``, an ``InvariantViolation``) and
must not pass as a figure hole.  The supervisor adds recovery from the
two *environmental* failures only a separate process has: a worker
that dies or hangs is replaced and its cell retried, then quarantined
as a typed :class:`~repro.exec.supervisor.CellFailure`.

:func:`run_sweep` adds the store integration: with ``resume=True``
cells whose content hash is already in the :class:`ResultStore` are
skipped entirely, which is what lets an interrupted ``run all`` restart
where it died.  Fresh cells are checkpointed to the store *as each one
finishes* (the ``on_cell`` callback both executors honour), so even a
sweep that dies mid-batch leaves its completed cells resumable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from repro.context import RunContext, current_context, run_context
from repro.errors import ConfigError
from repro.exec.spec import CellSpec, Sweep, faults_from_params
from repro.exec.store import ResultStore, cell_key
from repro.exec.supervisor import MAX_RETRIES, CellFailure, CellSupervisor
from repro.experiments.runner import (
    ConfigName,
    FigureResult,
    RunResult,
    SweepStats,
)


def execute_cell(spec: CellSpec) -> RunResult:
    """Run one cell, self-contained: resolve the harness's cell runner,
    install the cell's fault plan and swap backend, run, and freeze the
    result.

    This is the unit all executors (and worker processes) invoke; it
    must depend on nothing but the spec.
    """
    # Deferred imports keep module import acyclic (the registry imports
    # this module for run_sweep).
    from repro.experiments.registry import cell_runner
    from repro.profiling import profile_runner

    runner = cell_runner(spec.experiment_id)
    ctx = replace(current_context(), faults=faults_from_params(spec.faults),
                  swap_backend=spec.backend)
    with run_context(ctx):
        if ctx.profile_dir is not None:
            result = profile_runner(runner, spec)
        else:
            result = runner(spec)
    if result.timeline is not None:
        # Gauges close over live VM state: not picklable, not JSON.
        result.timeline.freeze()
    return result


def _timed_execute(spec: CellSpec, ctx: RunContext,
                   ) -> tuple[RunResult, float]:
    """Run ``spec`` under ``ctx`` (the context a worker process was
    handed), timing it."""
    started = time.perf_counter()
    with run_context(ctx):
        result = execute_cell(spec)
    return result, time.perf_counter() - started


#: Per-completed-cell callback: ``(spec, result, wall_seconds)``.  Every
#: executor invokes it the moment a cell finishes, in completion order;
#: run_sweep uses it to checkpoint the store incrementally.
OnCell = Callable[[CellSpec, RunResult, float], None]


class SerialExecutor:
    """Run cells one after another in this process (the default)."""

    jobs = 1
    #: Nothing is ever retried in-process.
    retried_cells: tuple[str, ...] = ()

    def run_cells(self, specs: Sequence[CellSpec],
                  on_cell: OnCell | None = None,
                  ) -> list[tuple[RunResult, float]]:
        """(result, wall seconds) per spec, in submission order."""
        ctx = current_context()
        results: list[tuple[RunResult, float]] = []
        for spec in specs:
            result, wall = _timed_execute(spec, ctx)
            if on_cell is not None:
                on_cell(spec, result, wall)
            results.append((result, wall))
        return results


def make_executor(jobs: int, *, timeout: float | None = None,
                  retries: int | None = None,
                  ) -> SerialExecutor | CellSupervisor:
    """The executor for ``--jobs``, ``--timeout`` and ``--retries``.

    In-process :class:`SerialExecutor` only for one job with nothing to
    supervise: no per-cell ``timeout``, no ``retries`` budget, and no
    worker-kill rate in the current run context's fault plan (a worker
    must exist to be killed).  Everything else runs on the
    :class:`CellSupervisor` pool.
    """
    faults = current_context().faults
    kills = (faults is not None and faults.enabled
             and faults.worker_kill_rate > 0)
    if jobs == 1 and timeout is None and retries is None and not kills:
        return SerialExecutor()
    return CellSupervisor(
        jobs, timeout=timeout,
        max_retries=MAX_RETRIES if retries is None else retries)


def _failure_result(spec: CellSpec, failure: CellFailure) -> RunResult:
    """The crashed placeholder standing in for a quarantined cell, so
    figure assembly renders an explicit hole exactly as it does for
    fault-crashed cells."""
    try:
        config = (ConfigName(spec.config) if spec.config
                  else ConfigName.BASELINE)
    except ValueError:
        config = ConfigName.BASELINE
    return RunResult(config=config, runtime=None, crashed=True, counters={},
                     crash_reason=failure.describe())


@dataclass
class SweepOutcome:
    """Everything :func:`run_sweep` learned about one sweep."""

    sweep: Sweep
    #: Cell id -> result, in sweep (presentation) order.  Quarantined
    #: cells appear as crashed placeholder results; their typed records
    #: are in :attr:`failures`.
    results: dict[str, RunResult]
    #: Cell id -> wall seconds, for the cells executed this run.
    wall_seconds: dict[str, float] = field(default_factory=dict)
    executed: int = 0
    cached: int = 0
    #: Cell id -> typed failure record for quarantined cells.
    failures: dict[str, CellFailure] = field(default_factory=dict)
    #: Cells the supervisor retried at least once this run.
    retried: int = 0
    #: Cell id -> wall seconds the store recorded when each cache-hit
    #: cell originally executed.
    cached_wall_seconds: dict[str, float] = field(default_factory=dict)
    #: Cache hits whose stored result has no trace although tracing was
    #: requested this run (trace unavailable (cached)).
    cached_traceless: int = 0

    @property
    def stats(self) -> SweepStats:
        """Compact accounting for CLI summaries and benchmarks."""
        return SweepStats(
            experiment_id=self.sweep.experiment_id,
            cells=len(self.sweep.cells),
            executed=self.executed,
            cached=self.cached,
            wall_seconds=sum(self.wall_seconds.values()),
            retried=self.retried,
            quarantined=len(self.failures),
            cached_wall_seconds=sum(self.cached_wall_seconds.values()),
            cached_traceless=self.cached_traceless,
        )


def run_sweep(sweep: Sweep, *,
              executor: SerialExecutor | CellSupervisor | None = None,
              store: ResultStore | None = None,
              resume: bool = False) -> SweepOutcome:
    """Execute a sweep: resolve cache hits, run the rest, persist.

    With ``resume=True`` every cell already present in ``store`` (same
    content hash) is returned from cache without executing; a store is
    then mandatory.  Freshly executed cells are checkpointed to
    ``store`` as each finishes, resume or not.  Quarantined cells are
    *not* stored -- a later ``--resume`` retries them.
    """
    if resume and store is None:
        raise ConfigError(
            "resume requires a results store (pass --results-dir)")
    executor = executor or SerialExecutor()

    cached: dict[str, RunResult] = {}
    cached_walls: dict[str, float] = {}
    pending: list[CellSpec] = []
    for spec in sweep.cells:
        entry = store.load_cell_entry(spec) if (resume and store) else None
        if entry is not None:
            cached[spec.cell_id], cached_walls[spec.cell_id] = entry
        else:
            pending.append(spec)

    on_cell = store.store_cell if store is not None else None
    executed = executor.run_cells(pending, on_cell)

    walls: dict[str, float] = {}
    fresh: dict[str, RunResult] = {}
    failures: dict[str, CellFailure] = {}
    for spec, (outcome, wall) in zip(pending, executed):
        walls[spec.cell_id] = wall
        if isinstance(outcome, CellFailure):
            failures[spec.cell_id] = outcome
            fresh[spec.cell_id] = _failure_result(spec, outcome)
        else:
            fresh[spec.cell_id] = outcome

    results = {
        spec.cell_id: (cached.get(spec.cell_id) or fresh[spec.cell_id])
        for spec in sweep.cells
    }
    cached_traceless = 0
    if current_context().trace is not None:
        # Tracing is not part of the cell hash, so a traced --resume can
        # hit entries recorded without it; flag them rather than pretend
        # an empty trace was captured.
        cached_traceless = sum(
            1 for result in cached.values()
            if getattr(result, "trace", None) is None)
    return SweepOutcome(
        sweep=sweep, results=results, wall_seconds=walls,
        executed=len(fresh) - len(failures), cached=len(cached),
        failures=failures,
        retried=len(executor.retried_cells),
        cached_wall_seconds=cached_walls,
        cached_traceless=cached_traceless)


def finish_figure(figure: FigureResult,
                  outcome: SweepOutcome | None = None,
                  store: ResultStore | None = None) -> FigureResult:
    """Attach sweep stats to an assembled figure and persist it.

    The stored figure record is stamped with the content keys of its
    constituent cells, so a later :meth:`ResultStore.load_figure` with
    the current sweep's keys refuses a figure assembled from cells that
    have since changed (spec edits, schema bumps) instead of serving
    stale data.
    """
    if outcome is not None:
        figure.stats = outcome.stats
    if store is not None:
        keys = None
        if outcome is not None:
            keys = [cell_key(spec) for spec in outcome.sweep.cells]
        store.store_figure(figure, cell_keys=keys)
    return figure


#: Signature every harness's cell runner satisfies.
CellRunner = Callable[[CellSpec], RunResult]
