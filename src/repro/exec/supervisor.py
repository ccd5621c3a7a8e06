"""The supervised worker pool: warm workers, deadlines, crash recovery.

:class:`CellSupervisor` is the one multi-process executor.  It keeps up
to ``jobs`` long-lived worker processes, and each worker runs cell
after cell over its own duplex pipe, so a worker is forked once per
sweep, not once per cell.  The parent blocks in
:func:`multiprocessing.connection.wait` on every busy worker's pipe and
process sentinel, with a timeout equal to the nearest cell deadline or
backoff expiry, so it wakes exactly when one of three things happened:

* the worker **reported** -- the cell's result, or the error it raised;
* the worker **died** -- its sentinel fired without a report (signal
  kill, ``os._exit``, interpreter abort);
* the worker **hung** -- its cell outlived the per-cell deadline.

Died and hung are environmental: the worker is killed and replaced,
and the cell is retried with capped exponential backoff up to
``max_retries`` times.  A cell that never gets through becomes a typed
:class:`CellFailure` (``timeout | worker-crash``) that renders as an
explicit figure hole.  These two are the only failures ever
quarantined.  An error the cell *raised* is deterministic under its
seed and may be a simulator bug the invariant auditor caught, so it
aborts the sweep exactly as under
:class:`~repro.exec.executor.SerialExecutor`: it is re-raised in the
parent without retry, after every live worker is torn down.  Cells
that finished before it are already checkpointed by ``on_cell``.

The state machine per cell (see DESIGN.md, "The cell supervisor")::

    pending -> running -> done(result)
                 |-> raised ---------------------> sweep aborts (re-raise)
                 |-> died/hung -> backoff -> pending   (attempts left)
                 `-> died/hung ------------------> quarantined(failure)
"""

from __future__ import annotations

import enum
import multiprocessing as mp
import os
import queue
import signal
import threading
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait as connection_wait
from typing import Callable, Sequence

from repro.context import RunContext, current_context
from repro.errors import ConfigError
from repro.exec.spec import CellSpec, faults_from_params
from repro.experiments.runner import RunResult
from repro.faults.plan import capped_backoff, should_kill_worker

#: Exit code of a chaos-killed worker (distinguishable in ps output,
#: not load-bearing: any report-less death is a worker-crash).
WORKER_KILL_EXIT = 86

#: Environmental failures tolerated per cell before quarantine (total
#: attempts = retries + 1) when ``--retries`` is not given.
MAX_RETRIES = 2
#: The first retry waits BACKOFF_BASE seconds, each further retry
#: BACKOFF_FACTOR times longer, never more than BACKOFF_CAP.
BACKOFF_BASE = 0.25
BACKOFF_FACTOR = 2.0
BACKOFF_CAP = 5.0


class FailureKind(enum.Enum):
    """Why a cell was quarantined."""

    #: The attempt outlived the per-cell wall-clock deadline.
    TIMEOUT = "timeout"
    #: The worker process died without reporting (signal, hard exit).
    WORKER_CRASH = "worker-crash"


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


class _RemoteTraceback(Exception):
    """A worker's formatted traceback, chained as the cause of the cell
    error re-raised in the parent."""


def _read_until_eof(conn: Connection, inbox: queue.SimpleQueue) -> None:
    """Forward the parent's messages to the worker's main thread, and
    end the process the moment the pipe closes: the parent finished,
    or died, possibly while this worker was mid-cell."""
    try:
        while True:
            inbox.put(conn.recv())
    except (EOFError, OSError):
        os._exit(0)


def _worker_main(conn: Connection, ctx: RunContext,
                 inherited: list[Connection]) -> None:
    """Worker-process body: run each ``(spec, attempt)`` the parent
    sends, replying ``("ok", result, wall)`` or
    ``("raised", error, traceback text)``."""
    # Deferred: the parent imported this module before forking, but a
    # spawn-start child resolves imports fresh.
    from repro.exec.executor import _timed_execute

    # A forked child holds copies of every parent-side pipe end open at
    # fork time, its own included; while any copy lives, no worker
    # would see EOF when the parent goes away.
    for end in inherited:
        end.close()
    # Ctrl-C reaches the whole process group; the parent handles it
    # and tears the pool down.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    inbox: queue.SimpleQueue = queue.SimpleQueue()
    threading.Thread(target=_read_until_eof, args=(conn, inbox),
                     daemon=True).start()
    while True:
        spec, attempt = inbox.get()
        chaos = faults_from_params(spec.faults)
        if chaos is not None and should_kill_worker(
                chaos, spec.cell_id, spec.seed, attempt):
            # The chaos fault: die hard, reporting nothing -- exactly
            # what an OOM kill or segfault looks like from the parent.
            os._exit(WORKER_KILL_EXIT)
        try:
            result, wall = _timed_execute(spec, ctx)
            reply = ("ok", result, wall)
        except Exception as error:  # noqa: BLE001 - the parent re-raises
            reply = ("raised", error, traceback.format_exc())
        try:
            conn.send(reply)
        except Exception as error:  # noqa: BLE001 - e.g. an unpicklable error
            conn.send(("raised", RuntimeError(
                f"cell {spec.cell_id} outcome does not pickle: {error}"),
                reply[-1] if reply[0] == "raised" else ""))


class _Task:
    """One cell waiting to run, or to retry after backoff."""

    __slots__ = ("index", "spec", "attempt", "not_before")

    def __init__(self, index: int, spec: CellSpec, attempt: int,
                 not_before: float) -> None:
        self.index = index
        self.spec = spec
        self.attempt = attempt
        self.not_before = not_before


class _Worker:
    """One live worker process and the cell it is running, if any."""

    __slots__ = ("process", "conn", "task", "started", "deadline")

    def __init__(self, process: mp.Process, conn: Connection) -> None:
        self.process = process
        self.conn = conn
        self.task: _Task | None = None
        self.started = 0.0
        self.deadline: float | None = None


class CellSupervisor:
    """Run cells on at most ``jobs`` warm, supervised worker processes.

    ``timeout`` is the per-cell wall-clock deadline in seconds (None =
    none); ``max_retries`` bounds the retries of a cell whose worker
    died or hung.  Results come back in submission order as
    ``(outcome, wall)`` pairs, where ``outcome`` is the cell's
    :class:`RunResult` or, for a quarantined cell, its
    :class:`CellFailure`.  Results are bit-identical to
    :class:`~repro.exec.executor.SerialExecutor`'s because each worker
    runs the same pure ``execute_cell`` on a spec that carries
    everything the cell depends on.
    """

    def __init__(self, jobs: int, *, timeout: float | None = None,
                 max_retries: int = MAX_RETRIES) -> None:
        if jobs < 1:
            raise ConfigError(f"jobs must be a positive integer: {jobs}")
        if timeout is not None and timeout <= 0:
            raise ConfigError(f"timeout must be positive: {timeout}")
        if max_retries < 0:
            raise ConfigError(
                f"max_retries must be non-negative: {max_retries}")
        self.jobs = jobs
        self.timeout = timeout
        self.max_retries = max_retries
        #: Cell ids that needed at least one retry in the latest
        #: :meth:`run_cells` call (they may still have succeeded).
        self.retried_cells: list[str] = []

    def run_cells(
        self, specs: Sequence[CellSpec],
        on_cell: Callable[[CellSpec, RunResult, float], None] | None = None,
    ) -> list[tuple[RunResult | CellFailure, float]]:
        """(outcome, wall seconds) per spec, in submission order."""
        self.retried_cells = []
        outcomes: dict[int, tuple[RunResult | CellFailure, float]] = {}
        #: Wall seconds burned by failed attempts, per cell index.
        burned: dict[int, float] = {}
        tasks = [_Task(i, spec, 1, 0.0) for i, spec in enumerate(specs)]
        workers: list[_Worker] = []
        ctx = current_context()
        try:
            while tasks or any(w.task is not None for w in workers):
                self._dispatch(tasks, workers, ctx, time.monotonic())
                busy = [w for w in workers if w.task is not None]
                ready = connection_wait(
                    [w.conn for w in busy] + [w.process.sentinel
                                              for w in busy],
                    self._next_wakeup(tasks, busy, time.monotonic()))
                now = time.monotonic()
                for worker in busy:
                    if worker.conn in ready or worker.process.sentinel in ready:
                        self._collect(worker, workers, now, outcomes,
                                      burned, tasks, on_cell)
                    elif worker.deadline is not None \
                            and now >= worker.deadline:
                        self._stop(worker)
                        self._fail(worker, workers, FailureKind.TIMEOUT,
                                   f"cell exceeded its {self.timeout}s "
                                   f"deadline", now, outcomes, burned,
                                   tasks)
        finally:
            # Normal exit, a cell error, or a failing on_cell checkpoint
            # alike: no worker outlives the call.
            for worker in workers:
                self._stop(worker)
        return [outcomes[i] for i in range(len(specs))]

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def _dispatch(self, tasks: list[_Task], workers: list[_Worker],
                  ctx: RunContext, now: float) -> None:
        """Hand ready cells, oldest first, to idle workers, starting
        workers up to ``jobs``.  A cell sitting out its backoff does not
        block later cells from taking a worker."""
        for task in [t for t in tasks if t.not_before <= now]:
            worker = next((w for w in workers if w.task is None), None)
            if worker is None:
                if len(workers) >= self.jobs:
                    return
                worker = self._start_worker(workers, ctx)
            tasks.remove(task)
            worker.task, worker.started = task, now
            worker.deadline = (None if self.timeout is None
                               else now + self.timeout)
            try:
                worker.conn.send((task.spec, task.attempt))
            except OSError:
                pass  # the worker died idle; its sentinel reports it

    def _next_wakeup(self, tasks: list[_Task], busy: list[_Worker],
                     now: float) -> float | None:
        """Seconds until the nearest deadline or backoff expiry that
        could change anything (None = only a worker event can)."""
        wakes = [w.deadline for w in busy if w.deadline is not None]
        if len(busy) < self.jobs:
            wakes.extend(t.not_before for t in tasks)
        return max(0.0, min(wakes) - now) if wakes else None

    # ------------------------------------------------------------------
    # outcome collection
    # ------------------------------------------------------------------

    def _collect(self, worker: _Worker, workers: list[_Worker], now: float,
                 outcomes, burned, tasks: list[_Task], on_cell) -> None:
        """Resolve a worker whose pipe or sentinel fired."""
        task = worker.task
        try:
            reply = worker.conn.recv() if worker.conn.poll() else None
        except (EOFError, OSError):
            reply = None  # the pipe closed: the worker died
        if reply is None:
            self._stop(worker)
            self._fail(worker, workers, FailureKind.WORKER_CRASH,
                       f"worker exited with code {worker.process.exitcode} "
                       f"before reporting", now, outcomes, burned, tasks)
            return
        worker.task = None
        if reply[0] == "raised":
            _tag, error, remote_traceback = reply
            raise error from _RemoteTraceback(remote_traceback)
        _tag, result, wall = reply
        outcomes[task.index] = (result, wall)
        if on_cell is not None:
            on_cell(task.spec, result, wall)

    def _fail(self, worker: _Worker, workers: list[_Worker],
              kind: FailureKind, message: str, now: float, outcomes,
              burned, tasks: list[_Task]) -> None:
        """Drop a stopped dead or hung worker (the next dispatch starts
        a replacement); retry its cell after backoff or, with no
        attempts left, quarantine it."""
        workers.remove(worker)
        task = worker.task
        burned[task.index] = (burned.get(task.index, 0.0)
                              + max(0.0, now - worker.started))
        if task.attempt <= self.max_retries:
            if task.spec.cell_id not in self.retried_cells:
                self.retried_cells.append(task.spec.cell_id)
            delay = capped_backoff(task.attempt, BACKOFF_BASE,
                                   BACKOFF_FACTOR, BACKOFF_CAP)
            tasks.append(_Task(task.index, task.spec, task.attempt + 1,
                               now + delay))
            return
        failure = CellFailure(
            cell_id=task.spec.cell_id, kind=kind,
            message=f"{message} (retries exhausted)", attempts=task.attempt)
        outcomes[task.index] = (failure, burned[task.index])

    # ------------------------------------------------------------------
    # process lifecycle
    # ------------------------------------------------------------------

    @staticmethod
    def _start_worker(workers: list[_Worker], ctx: RunContext) -> _Worker:
        parent_end, child_end = mp.Pipe()
        inherited = [w.conn for w in workers] + [parent_end]
        process = mp.Process(target=_worker_main,
                             args=(child_end, ctx, inherited), daemon=True)
        process.start()
        child_end.close()  # the worker holds the only child end
        worker = _Worker(process, parent_end)
        workers.append(worker)
        return worker

    @staticmethod
    def _stop(worker: _Worker) -> None:
        """End a worker: an idle one exits on the closed pipe, a busy
        or wedged one is killed."""
        worker.conn.close()
        if worker.task is None:
            worker.process.join(timeout=1.0)
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join()
