"""The supervised cell executor: timeouts, crash recovery, quarantine.

``ParallelExecutor`` trusts its workers: one hung cell stalls the pool
forever and one dead worker poisons every sibling future with
``BrokenProcessPool``.  The :class:`CellSupervisor` trusts nothing.
Each cell attempt runs in its *own* ``multiprocessing.Process`` joined
to the parent by a pipe, so the supervisor can observe three distinct
outcomes the pool API conflates:

* the worker **reported** -- a result or a typed error came down the
  pipe;
* the worker **died** -- the process exited without reporting (signal
  kill, ``os._exit``, interpreter abort);
* the worker **hung** -- alive past its per-cell deadline, so the
  supervisor terminates it.

Died and hung attempts are environmental: the supervisor retries them
with capped exponential backoff up to ``max_retries`` times.  Errors
the worker itself reports are deterministic -- the same seed replays
the same fault -- so retrying is wasted work and they quarantine
immediately.  Either way a cell that never succeeds becomes a typed
:class:`CellFailure` (``timeout | worker-crash | fault | invariant``)
in submission order, never an exception: the sweep completes and the
figure renders with explicit holes, exactly how PR 1 reports crashed
cells.

The state machine per cell (see DESIGN.md, "The cell supervisor")::

    pending -> running -> done(result)
                 |-> reported error -------------> quarantined(failure)
                 |-> died/hung -> backoff -> running   (attempts left)
                 `-> died/hung ------------------> quarantined(failure)

Successful cells are handed to the ``on_cell`` callback the moment
they finish, which is how :func:`~repro.exec.executor.run_sweep`
checkpoints incrementally to the result store.
"""

from __future__ import annotations

import enum
import multiprocessing as mp
import os
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait as connection_wait
from typing import Callable, Sequence

from repro.context import RunContext, current_context
from repro.errors import ConfigError, InvariantViolation
from repro.exec.spec import CellSpec, faults_from_params
from repro.experiments.runner import RunResult

#: Exit code of a chaos-killed worker (distinguishable in ps output,
#: not load-bearing: any report-less death is a worker-crash).
WORKER_KILL_EXIT = 86


class FailureKind(enum.Enum):
    """Why a cell was quarantined."""

    #: The attempt outlived the per-cell wall-clock deadline.
    TIMEOUT = "timeout"
    #: The worker process died without reporting (signal, hard exit).
    WORKER_CRASH = "worker-crash"
    #: The cell raised inside the worker (fault layer, harness bug).
    FAULT = "fault"
    #: The runtime invariant auditor caught the simulator lying.
    INVARIANT = "invariant"


#: Environmental failures worth retrying; reported errors are
#: deterministic under the cell's seed and quarantine immediately.
RETRYABLE = frozenset({FailureKind.TIMEOUT, FailureKind.WORKER_CRASH})


@dataclass(frozen=True)
class CellFailure:
    """A quarantined cell: the typed record standing in for its result."""

    cell_id: str
    kind: FailureKind
    message: str
    #: Total attempts made (1 = failed without any retry).
    attempts: int

    def describe(self) -> str:
        """One-line human form for summaries and crash reasons."""
        return (f"CellFailure[{self.kind.value}] after "
                f"{self.attempts} attempt(s): {self.message}")


@dataclass(frozen=True)
class SupervisorConfig:
    """Tunables of the supervised executor."""

    #: Per-cell wall-clock deadline in seconds (None = no deadline).
    timeout: float | None = None
    #: Environmental failures tolerated per cell before quarantine
    #: (total attempts = max_retries + 1).
    max_retries: int = 2
    #: First retry waits this long...
    backoff_base: float = 0.25
    #: ...each further retry multiplies the wait by this factor...
    backoff_factor: float = 2.0
    #: ...capped here, so a long sweep never sleeps unboundedly.
    backoff_cap: float = 5.0
    #: Liveness poll interval: the longest the supervisor sleeps before
    #: re-checking workers for death or deadline.
    heartbeat: float = 0.1

    def validate(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigError(f"timeout must be positive: {self.timeout}")
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be non-negative: {self.max_retries}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ConfigError("backoff must be non-negative")
        if self.backoff_factor < 1.0:
            raise ConfigError("backoff_factor must be >= 1")
        if self.heartbeat <= 0:
            raise ConfigError("heartbeat must be positive")

    def backoff(self, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based)."""
        return min(self.backoff_cap,
                   self.backoff_base * self.backoff_factor ** (attempt - 1))


def _supervised_worker(conn: Connection, spec_dict: dict, attempt: int,
                       ctx: RunContext) -> None:
    """Worker-process body: run one cell attempt, report on the pipe.

    Every outcome is reported as a tagged tuple; the parent treats a
    closed pipe with no report as a worker crash.  Deterministic
    errors are classified *here*, where the exception object still
    exists (it may not pickle).
    """
    # Deferred: the parent imported this module before forking, but a
    # spawn-start child resolves imports fresh.
    from repro.exec.executor import _timed_execute
    from repro.faults.plan import should_kill_worker

    try:
        spec = CellSpec.from_dict(spec_dict)
        chaos = faults_from_params(spec.faults)
        if chaos is not None and should_kill_worker(
                chaos, spec.cell_id, spec.seed, attempt):
            # The chaos fault: die hard, reporting nothing -- exactly
            # what an OOM kill or segfault looks like from the parent.
            conn.close()
            os._exit(WORKER_KILL_EXIT)
        result, wall = _timed_execute(spec, ctx)
        conn.send(("ok", result, wall))
    except InvariantViolation as error:
        conn.send(("failed", FailureKind.INVARIANT.value,
                   f"{type(error).__name__}: {error}"))
    except BaseException as error:  # noqa: BLE001 - report, then die
        conn.send(("failed", FailureKind.FAULT.value,
                   f"{type(error).__name__}: {error}"))
    finally:
        conn.close()


class _Pending:
    """One cell waiting to run (or to retry after backoff)."""

    __slots__ = ("index", "spec", "attempt", "not_before")

    def __init__(self, index: int, spec: CellSpec, attempt: int,
                 not_before: float) -> None:
        self.index = index
        self.spec = spec
        self.attempt = attempt
        self.not_before = not_before


class _Running:
    """One live worker process under supervision."""

    __slots__ = ("pending", "process", "conn", "started", "deadline")

    def __init__(self, pending: _Pending, process: mp.Process,
                 conn: Connection, started: float,
                 deadline: float | None) -> None:
        self.pending = pending
        self.process = process
        self.conn = conn
        self.started = started
        self.deadline = deadline


class CellSupervisor:
    """Run cells under supervision: at most ``jobs`` live workers, each
    with its own process, pipe, and deadline.

    Results come back in submission order as ``(outcome, wall)`` pairs
    where ``outcome`` is the cell's :class:`RunResult` or, for
    quarantined cells, its :class:`CellFailure`.  Successful results
    are bit-identical to :class:`~repro.exec.executor.SerialExecutor`'s
    because the worker runs the same pure ``execute_cell``; the
    property the parallel executor guarantees survives supervision.
    """

    def __init__(self, jobs: int,
                 config: SupervisorConfig | None = None) -> None:
        # Deferred import: executor imports this module at top level.
        from repro.exec.executor import _validate_jobs

        _validate_jobs(jobs)
        self.jobs = jobs
        self.config = config or SupervisorConfig()
        self.config.validate()
        #: Cell ids that needed at least one retry in the latest
        #: :meth:`run_cells` call (they may still have succeeded).
        self.retried_cells: list[str] = []

    # ------------------------------------------------------------------

    def run_cells(
        self, specs: Sequence[CellSpec],
        on_cell: Callable[[CellSpec, RunResult, float], None] | None = None,
    ) -> list[tuple[RunResult | CellFailure, float]]:
        """(outcome, wall seconds) per spec, in submission order."""
        specs = list(specs)
        self.retried_cells = []
        if not specs:
            return []
        outcomes: dict[int, tuple[RunResult | CellFailure, float]] = {}
        #: Wall seconds burned by failed attempts, per cell index.
        burned: dict[int, float] = {}
        queue: list[_Pending] = [
            _Pending(i, spec, 1, 0.0) for i, spec in enumerate(specs)]
        running: list[_Running] = []

        try:
            while queue or running:
                now = time.monotonic()
                self._launch_ready(queue, running, now)
                self._wait(queue, running, now)
                now = time.monotonic()
                for worker in list(running):
                    finished = self._collect(worker, now, specs, outcomes,
                                             burned, queue, on_cell)
                    if finished:
                        running.remove(worker)
        except BaseException:
            # The supervision loop itself failed -- e.g. the on_cell
            # store checkpoint raised StoreContentionError.  Tear down
            # every live worker before propagating, so an aborted sweep
            # never strands orphan processes.
            for worker in running:
                self._terminate(worker)
            raise

        return [outcomes[i] for i in range(len(specs))]

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def _launch_ready(self, queue: list[_Pending], running: list[_Running],
                      now: float) -> None:
        """Start waiting cells, oldest first, up to the jobs cap.

        A cell sitting out its backoff does not block later cells from
        taking the slot -- the scan keeps going past it.
        """
        for pending in list(queue):
            if len(running) >= self.jobs:
                break
            if pending.not_before > now:
                continue
            queue.remove(pending)
            parent_conn, child_conn = mp.Pipe(duplex=False)
            process = mp.Process(
                target=_supervised_worker,
                args=(child_conn, pending.spec.to_dict(), pending.attempt,
                      current_context()),
                daemon=True)
            process.start()
            child_conn.close()  # the worker holds the only write end
            deadline = (None if self.config.timeout is None
                        else now + self.config.timeout)
            running.append(
                _Running(pending, process, parent_conn, now, deadline))

    def _wait(self, queue: list[_Pending], running: list[_Running],
              now: float) -> None:
        """Sleep until something can happen: a report, a deadline, a
        backoff expiry -- capped by the heartbeat so worker *death*
        (which signals no pipe on some platforms until EOF) is noticed
        promptly."""
        if not running:
            wake = min((p.not_before for p in queue), default=now)
            delay = min(max(0.0, wake - now), self.config.heartbeat)
            if delay > 0:
                time.sleep(delay)
            return
        timeout = self.config.heartbeat
        for worker in running:
            if worker.deadline is not None:
                timeout = min(timeout, max(0.0, worker.deadline - now))
        if timeout > 0:
            connection_wait([w.conn for w in running], timeout)

    # ------------------------------------------------------------------
    # outcome collection
    # ------------------------------------------------------------------

    def _collect(self, worker: _Running, now: float,
                 specs: list[CellSpec],
                 outcomes: dict[int, tuple[RunResult | CellFailure, float]],
                 burned: dict[int, float],
                 queue: list[_Pending],
                 on_cell) -> bool:
        """Resolve one worker's state; True when it left ``running``."""
        pending = worker.pending
        elapsed = max(0.0, now - worker.started)
        if worker.conn.poll():
            try:
                report = worker.conn.recv()
            except (EOFError, OSError):
                # Pipe closed mid-report: the worker died writing.
                report = None
            self._reap(worker)
            if report is not None and report[0] == "ok":
                _tag, result, wall = report
                outcomes[pending.index] = (result, wall)
                if on_cell is not None:
                    on_cell(pending.spec, result, wall)
                return True
            if report is not None:
                _tag, kind_value, message = report
                burned[pending.index] = \
                    burned.get(pending.index, 0.0) + elapsed
                self._quarantine(pending, FailureKind(kind_value), message,
                                 outcomes, burned)
                return True
            self._retry_or_quarantine(
                pending, FailureKind.WORKER_CRASH,
                f"worker died before reporting (exit code "
                f"{worker.process.exitcode})", now, elapsed,
                outcomes, burned, queue)
            return True
        if not worker.process.is_alive():
            self._reap(worker)
            code = worker.process.exitcode
            self._retry_or_quarantine(
                pending, FailureKind.WORKER_CRASH,
                f"worker exited with code {code} before reporting",
                now, elapsed, outcomes, burned, queue)
            return True
        if worker.deadline is not None and now >= worker.deadline:
            self._terminate(worker)
            self._retry_or_quarantine(
                pending, FailureKind.TIMEOUT,
                f"cell exceeded its {self.config.timeout}s deadline",
                now, elapsed, outcomes, burned, queue)
            return True
        return False

    def _retry_or_quarantine(self, pending: _Pending, kind: FailureKind,
                             message: str, now: float, elapsed: float,
                             outcomes, burned, queue: list[_Pending]) -> None:
        burned[pending.index] = burned.get(pending.index, 0.0) + elapsed
        if pending.attempt <= self.config.max_retries:
            if pending.spec.cell_id not in self.retried_cells:
                self.retried_cells.append(pending.spec.cell_id)
            delay = self.config.backoff(pending.attempt)
            queue.append(_Pending(pending.index, pending.spec,
                                  pending.attempt + 1, now + delay))
            return
        self._quarantine(pending, kind,
                         f"{message} (retries exhausted)", outcomes, burned)

    def _quarantine(self, pending: _Pending, kind: FailureKind,
                    message: str, outcomes, burned) -> None:
        failure = CellFailure(
            cell_id=pending.spec.cell_id, kind=kind, message=message,
            attempts=pending.attempt)
        outcomes[pending.index] = (failure,
                                   burned.get(pending.index, 0.0))

    # ------------------------------------------------------------------
    # process lifecycle
    # ------------------------------------------------------------------

    @staticmethod
    def _reap(worker: _Running) -> None:
        """Join a worker that reported or died; never blocks for long."""
        worker.conn.close()
        worker.process.join(timeout=1.0)
        if worker.process.is_alive():  # reported, then wedged on exit
            worker.process.terminate()
            worker.process.join(timeout=1.0)

    @staticmethod
    def _terminate(worker: _Running) -> None:
        """Tear down a hung worker, escalating SIGTERM -> SIGKILL."""
        worker.conn.close()
        worker.process.terminate()
        worker.process.join(timeout=1.0)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join(timeout=1.0)
