"""Exception hierarchy for the VSwapper reproduction.

Every error raised by the library derives from :class:`ReproError` so
applications can catch library failures with a single ``except`` clause
while letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigError(ReproError):
    """A configuration value is missing, inconsistent, or out of range."""


class SimulationError(ReproError):
    """The simulation engine reached an inconsistent state."""


class InvariantViolation(SimulationError):
    """A runtime self-check caught the simulator in an impossible state.

    Raised by the invariant auditor (:mod:`repro.audit`) when a
    ``--paranoid`` run finds frame-conservation drift, an EPT/mapper
    inconsistency, or a non-monotonic engine clock.  Unlike the fault
    family this always means a simulator bug, so it is never a figure
    hole: it aborts the sweep under every executor, without retry.
    """


class DiskError(ReproError):
    """An invalid disk request (out-of-range sector, bad length...)."""


class MemoryError_(ReproError):
    """Host or guest memory accounting was violated.

    Named with a trailing underscore to avoid shadowing the builtin
    ``MemoryError`` while staying greppable.
    """


class GuestError(ReproError):
    """The guest kernel model was driven into an invalid state."""


class GuestOomKill(GuestError):
    """The guest out-of-memory killer terminated the running workload.

    The paper observes this under over-ballooning (Section 2.4): the
    balloon manager inflates beyond what the guest can reclaim and the
    guest kills the benchmark process.  Experiments catch this exception
    and report the configuration as *crashed* (missing bars in the
    paper's figures).
    """

    def __init__(self, message: str, *, pid: int | None = None) -> None:
        super().__init__(message)
        self.pid = pid


class HostError(ReproError):
    """The hypervisor model was driven into an invalid state."""


class PlacementError(HostError):
    """The cluster scheduler could not place a VM on any host.

    Admission control (per-node overcommit ratios and host-root code
    capacity) rejected the VM everywhere.  Deriving from
    :class:`HostError` keeps the sweep semantics of other capacity
    failures: the cell reports as *crashed* instead of aborting the
    sweep.
    """


class FaultError(ReproError):
    """An injected fault exhausted its retry budget.

    Raised by the fault-injection layer (:mod:`repro.faults`) when a
    transient failure persists past the retry-with-backoff policy --
    e.g. a disk request that keeps failing.  Experiments catch this at
    the runner boundary and report the configuration as *crashed*.
    """


class DegradedError(FaultError):
    """An operation was refused because a subsystem degraded itself.

    After repeated faults trip a circuit breaker (the Swap Mapper's
    Section 4.1 fallback to uncooperative swapping), requests that
    *require* the disabled mechanism raise this instead of silently
    returning untrustworthy state.
    """


class ConsistencyError(ReproError):
    """A data-consistency invariant of the Swap Mapper was violated.

    Raised by the self-checking consistency layer when the simulated
    guest would have observed stale data -- e.g. a tracked page whose
    backing blocks were overwritten without invalidation (Section 4.1,
    "Data Consistency").
    """


class ExperimentError(ReproError):
    """An experiment harness was misconfigured or produced no data."""


class StoreError(ReproError):
    """The result store could not complete a read or write safely."""


class StoreContentionError(StoreError):
    """A store lock stayed contended past the retry deadline.

    Raised by the :class:`~repro.exec.store.ResultStore` after its
    capped-exponential-backoff acquisition loop (the same retry
    discipline the cell supervisor applies to workers) gives up on a
    ``flock``-held lock file.  The store on disk is untouched: the
    caller may retry, raise, or fall back to running without a cache.
    """


class StoreIntegrityError(StoreError):
    """A store record failed its integrity check and could not be used.

    Most integrity failures never surface as exceptions -- corrupt
    records are quarantined and read as cache misses -- but repair
    tooling (``store verify``) raises this when asked to treat any
    failure as fatal.
    """


class TraceError(ReproError):
    """The trace subsystem caught an inconsistency.

    Raised by the :class:`~repro.trace.analyzer.TraceAnalyzer` when the
    root-cause counts it re-derives from the event stream disagree with
    the independently maintained counters -- either the instrumentation
    or the accounting is wrong, and both claim to describe the same run.
    """
