"""The run context: the five run-wide settings a simulation reads.

A :class:`RunContext` bundles what the CLI's ``run`` flags decide for
a whole run -- the fault plan (``--faults`` and friends), the swap
backend (``--swap-backend``), the invariant auditor (``--paranoid``),
the tracing mode (``--trace``) and the profile directory
(``--profile``).  It is frozen and picklable.  The CLI builds one and
installs it with :func:`run_context` around the experiments it runs.
The executors ship :func:`current_context` to worker processes as a
single argument, and :func:`~repro.exec.executor.execute_cell`
narrows it per cell to the cell's own fault plan and backend.

Only ``faults`` and ``swap_backend`` change simulation results, so
only they enter a cell's identity: :class:`~repro.exec.spec.CellSpec`
captures them at sweep-build time and its cache key covers them.  The
other three fields are observational and never reach the cache key.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.config import FaultConfig, swap_backend_config
from repro.errors import ConfigError

#: Tracing modes: None (off), ``"full"``, or ``"sampled"``.
TRACE_MODES = (None, "full", "sampled")


@dataclass(frozen=True)
class RunContext:
    """The run-wide settings; the default instance turns all off."""

    #: Fault plan for machines whose config carries none.
    faults: FaultConfig | None = None
    #: Swap-backend registry kind for hosts whose node config leaves
    #: ``swap_backend`` unset (None = the host disk).
    swap_backend: str | None = None
    #: Whether every host installs the invariant auditor.
    paranoid: bool = False
    #: Tracing mode machines build their collectors with.
    trace: str | None = None
    #: Where cell profiles are written (None = profiling off).
    profile_dir: str | None = None

    def __post_init__(self) -> None:
        if self.trace not in TRACE_MODES:
            raise ConfigError(
                f"unknown trace mode {self.trace!r}; expected one of "
                f"{TRACE_MODES}")
        if self.swap_backend is not None:
            swap_backend_config(self.swap_backend)
        if self.faults is not None:
            self.faults.validate()


_CURRENT = RunContext()


def current_context() -> RunContext:
    """The installed context (all off unless :func:`run_context` says
    otherwise)."""
    return _CURRENT


@contextmanager
def run_context(ctx: RunContext) -> Iterator[RunContext]:
    """Install ``ctx`` for the block; the previous context comes back
    on exit, exceptions included."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = ctx
    try:
        yield ctx
    finally:
        _CURRENT = previous


__all__ = ["RunContext", "TRACE_MODES", "current_context", "run_context"]
