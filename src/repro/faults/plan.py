"""The seeded fault schedule consulted by every injection hook.

Each layer draws from its own RNG substream (``disk``, ``swap``,
``mapper``), so adding a hook to one layer never perturbs another
layer's schedule -- the same isolation discipline the simulator uses
for workload randomness.  Machine-wide injection totals accumulate in
:attr:`FaultPlan.counters`, a :class:`repro.metrics.counters.Counters`
instance, alongside the per-VM counters the hooks also bump.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.config import FaultConfig
from repro.context import current_context
from repro.errors import ConfigError
from repro.faults.breaker import CircuitBreaker
from repro.metrics.counters import Counters
from repro.sim.rng import DeterministicRng

def default_fault_config() -> FaultConfig | None:
    """The run context's fault plan: what a Cluster whose config
    carries no FaultConfig injects (the CLI's ``--faults``)."""
    return current_context().faults


def capped_backoff(attempt: int, base: float, factor: float,
                   cap: float) -> float:
    """Seconds to wait before retry number ``attempt`` (1-based):
    exponential from ``base`` by ``factor``, never more than ``cap``.

    The one retry formula of the worker pool, the store's lock loop and
    host-failure evacuation.
    """
    return min(cap, base * factor ** (attempt - 1))


def should_kill_worker(config: FaultConfig, cell_id: str, seed: int,
                       attempt: int) -> bool:
    """Whether a pool worker kills itself before running a cell.

    The draw is a pure function of (seed, cell id, attempt) -- its RNG
    is forked fresh here, never from the machine's stream -- so the
    chaos fault cannot perturb simulation results: a killed attempt ran
    nothing, and the surviving attempt's machine sees the exact same
    randomness as an unchaosed run.  Attempts past
    ``worker_kill_max_attempt`` are never struck, which is what lets a
    retrying supervisor always recover the cell.
    """
    if (not config.enabled or not config.worker_kill_rate
            or attempt > config.worker_kill_max_attempt):
        return False
    rng = DeterministicRng.keyed(seed, f"worker-kill:{cell_id}:{attempt}")
    return rng.chance(config.worker_kill_rate)


class StoreFaultPoint(enum.Enum):
    """Crash/stall points the result-store write path can inject.

    The first two model a process dying (SIGKILL, power loss) at the
    two interesting instants of a write-then-rename: before the rename
    (the record never lands; only a tmp orphan is left) and after the
    rename but before the durability stamp (the record landed but the
    writer never acknowledged).  ``TORN_WRITE`` models reordered disk
    writes surviving a crash: the rename landed but the data blocks did
    not, so the record is truncated at rest and must fail verification.
    ``LOCK_STALL`` holds the per-record write lock longer than needed,
    manufacturing the contention the backoff/retry path exists for.
    """

    BEFORE_RENAME = "crash-before-rename"
    AFTER_RENAME = "crash-after-rename"
    TORN_WRITE = "torn-write"
    LOCK_STALL = "lock-stall"


@dataclass(frozen=True)
class StoreFaultConfig:
    """Deterministic fault plan for the result store's write path.

    Seeded like :class:`FaultPlan`: each strike decision is a pure
    function of ``(seed, point, record key)`` drawn from a substream
    forked per point and key, so the same configuration replays the
    same crashes.  Unlike simulation faults, store crashes leave
    durable evidence (a dead process, a torn file), so every strike is
    also appended to an on-disk ledger *before* it lands and
    ``max_strikes`` bounds strikes per (point, key) across process
    restarts -- which is what lets a crash-then-resume loop always
    converge instead of re-killing the same record forever (the same
    role ``worker_kill_max_attempt`` plays for worker-kill chaos).
    """

    enabled: bool = False
    seed: int = 1
    #: Probability a record write aborts (hard ``os._exit``) after the
    #: tmp file is written but before the rename publishes it.
    crash_before_rename_rate: float = 0.0
    #: Probability a record write aborts right after the rename, before
    #: the store's last-writer stamp is updated.
    crash_after_rename_rate: float = 0.0
    #: Probability a record lands truncated (the write "succeeds" but
    #: the record at rest fails verification).
    torn_write_rate: float = 0.0
    #: Probability a writer stalls while holding its record lock...
    lock_stall_rate: float = 0.0
    #: ...for this long, manufacturing lock contention.
    lock_stall_seconds: float = 0.05
    #: Strikes allowed per (point, key) across all processes sharing
    #: the store (enforced via the store's strike ledger).
    max_strikes: int = 1

    _RATES = {
        StoreFaultPoint.BEFORE_RENAME: "crash_before_rename_rate",
        StoreFaultPoint.AFTER_RENAME: "crash_after_rename_rate",
        StoreFaultPoint.TORN_WRITE: "torn_write_rate",
        StoreFaultPoint.LOCK_STALL: "lock_stall_rate",
    }

    def validate(self) -> None:
        for attr in self._RATES.values():
            rate = getattr(self, attr)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{attr} must be within [0, 1]: {rate}")
        if self.lock_stall_seconds < 0:
            raise ConfigError("lock_stall_seconds must be non-negative")
        if self.max_strikes < 1:
            raise ConfigError("max_strikes must be >= 1")

    def rate_for(self, point: StoreFaultPoint) -> float:
        """The configured strike probability of one crash point."""
        return getattr(self, self._RATES[point])

    @staticmethod
    def chaos(rate: float = 0.25, seed: int = 1) -> "StoreFaultConfig":
        """The standing store-chaos plan: every point armed at ``rate``
        (the CLI's ``--store-faults RATE``)."""
        return StoreFaultConfig(
            enabled=True, seed=seed,
            crash_before_rename_rate=rate,
            crash_after_rename_rate=rate,
            torn_write_rate=rate,
            lock_stall_rate=rate,
        )


def should_strike_store(config: StoreFaultConfig, point: StoreFaultPoint,
                        key: str, strikes_so_far: int) -> bool:
    """Whether a store write suffers ``point`` for record ``key``.

    Pure in ``(seed, point, key)`` -- the RNG is forked fresh per
    decision, so arming one point never perturbs another's schedule.
    ``strikes_so_far`` is the ledger count for this (point, key); at
    ``max_strikes`` the point is spent and recovery can proceed.
    """
    if not config.enabled or strikes_so_far >= config.max_strikes:
        return False
    rate = config.rate_for(point)
    if not rate:
        return False
    rng = DeterministicRng.keyed(config.seed, f"store:{point.value}:{key}")
    return rng.chance(rate)


class FaultPlan:
    """Deterministic per-machine fault decisions.

    Hooks return their decision *and* record it in :attr:`counters`;
    when the plan is disabled every hook short-circuits to "no fault"
    without consuming randomness, so enabling faults later cannot
    retroactively change a fault-free run.
    """

    def __init__(self, config: FaultConfig, rng: DeterministicRng) -> None:
        config.validate()
        self.cfg = config
        self.counters = Counters()
        self._disk_rng = rng.fork("disk")
        self._swap_rng = rng.fork("swap")
        self._mapper_rng = rng.fork("mapper")
        # Swap-backend tier faults draw from their own substream
        # (fork() is pure, so adding it perturbs no existing schedule).
        self._backend_rng = rng.fork("swapback")

    @property
    def enabled(self) -> bool:
        """Whether any injection happens at all."""
        return self.cfg.enabled

    @property
    def max_retries(self) -> int:
        """Failed attempts tolerated before an operation aborts."""
        return self.cfg.max_retries

    def retry_backoff(self, attempt: int) -> float:
        """Exponential backoff before retry number ``attempt`` (1-based)."""
        return self.cfg.backoff_base * self.cfg.backoff_factor ** (attempt - 1)

    # ------------------------------------------------------------------
    # disk layer
    # ------------------------------------------------------------------

    def disk_transient_error(self) -> bool:
        """Whether this disk request attempt fails transiently."""
        if not self.enabled or not self.cfg.disk_transient_error_rate:
            return False
        return self._disk_rng.chance(self.cfg.disk_transient_error_rate)

    def disk_latency_spike(self) -> float:
        """Extra service seconds injected into this request (0 = none)."""
        if not self.enabled or not self.cfg.disk_latency_spike_rate:
            return 0.0
        if self._disk_rng.chance(self.cfg.disk_latency_spike_rate):
            return self.cfg.disk_latency_spike_seconds
        return 0.0

    def disk_torn_write(self) -> bool:
        """Whether this write lands torn and must be reissued."""
        if not self.enabled or not self.cfg.disk_torn_write_rate:
            return False
        return self._disk_rng.chance(self.cfg.disk_torn_write_rate)

    # ------------------------------------------------------------------
    # host swap path
    # ------------------------------------------------------------------

    def swap_read_failure(self) -> bool:
        """Whether this swap-in read attempt fails and must be retried."""
        if not self.enabled or not self.cfg.swap_read_error_rate:
            return False
        return self._swap_rng.chance(self.cfg.swap_read_error_rate)

    def swap_slot_corrupted(self) -> bool:
        """Whether the faulting slot fails its checksum (unrecoverable)."""
        if not self.enabled or not self.cfg.swap_slot_corruption_rate:
            return False
        return self._swap_rng.chance(self.cfg.swap_slot_corruption_rate)

    # ------------------------------------------------------------------
    # swap backend tiers (repro.swapback)
    # ------------------------------------------------------------------

    def remote_timeout(self) -> float:
        """Timeout penalty injected into one remote-memory swap request
        (0 = the request goes through cleanly).  The remote backend
        absorbs the penalty as extra stall and retries internally."""
        if not self.enabled or not self.cfg.remote_swap_timeout_rate:
            return 0.0
        if self._backend_rng.chance(self.cfg.remote_swap_timeout_rate):
            return self.cfg.remote_swap_timeout_seconds
        return 0.0

    def compressed_stall(self) -> float:
        """Pool-pressure stall injected into one compressed-tier store
        (0 = no stall)."""
        if not self.enabled or not self.cfg.compressed_stall_rate:
            return 0.0
        if self._backend_rng.chance(self.cfg.compressed_stall_rate):
            return self.cfg.compressed_stall_seconds
        return 0.0

    # ------------------------------------------------------------------
    # mapper
    # ------------------------------------------------------------------

    def mapper_invalidation(self) -> bool:
        """Whether a just-built association is forcibly invalidated."""
        if not self.enabled or not self.cfg.mapper_invalidation_rate:
            return False
        return self._mapper_rng.chance(self.cfg.mapper_invalidation_rate)

    def new_breaker(self) -> CircuitBreaker:
        """A fresh per-VM circuit breaker at the configured threshold."""
        return CircuitBreaker(self.cfg.mapper_breaker_threshold)

    # ------------------------------------------------------------------
    # host lifecycle (cluster-level chaos)
    # ------------------------------------------------------------------
    #
    # Host-fault draws follow the ``should_kill_worker`` discipline: a
    # *fresh* RNG forked from ``host_fault_seed`` per decision, never
    # the machine's streams.  Arming host faults therefore consumes no
    # randomness any simulation component sees, which is what makes a
    # surviving host's VMs bit-identical to an uninjected run.

    def host_crash_time(self, host_name: str) -> float | None:
        """Virtual time at which ``host_name`` hard-crashes, or None.

        Pure in ``(host_fault_seed, host_name)``: the same seed replays
        the same crash schedule across interpreter launches.
        """
        if not self.enabled or not self.cfg.host_crash_rate:
            return None
        rng = DeterministicRng.keyed(self.cfg.host_fault_seed,
                                    f"host-crash:{host_name}")
        if not rng.chance(self.cfg.host_crash_rate):
            return None
        return rng.uniform(0.0, self.cfg.host_fault_horizon)

    def host_degrade_window(
            self, host_name: str) -> tuple[float, float, float] | None:
        """``(start, duration, latency factor)`` of a transient
        degradation window for ``host_name``, or None."""
        if not self.enabled or not self.cfg.host_degrade_rate:
            return None
        rng = DeterministicRng.keyed(self.cfg.host_fault_seed,
                                    f"host-degrade:{host_name}")
        if not rng.chance(self.cfg.host_degrade_rate):
            return None
        start = rng.uniform(0.0, self.cfg.host_fault_horizon)
        return (start, self.cfg.host_degrade_duration,
                self.cfg.host_degrade_factor)

    def migration_fail_point(self, label: str, seq: int) -> str | None:
        """Whether (and how) one migration copy fails mid-transfer.

        Returns ``"rollback"`` (the copy dies before the commit point:
        the VM stays on the source, untouched), ``"complete"`` (it dies
        after: the destination finishes the move), or None.  Pure in
        ``(host_fault_seed, label, seq)`` so a retried copy draws a
        fresh, reproducible decision.
        """
        if not self.enabled or not self.cfg.migration_failure_rate:
            return None
        rng = DeterministicRng.keyed(self.cfg.host_fault_seed,
                                    f"migration-fail:{label}:{seq}")
        if not rng.chance(self.cfg.migration_failure_rate):
            return None
        return "complete" if rng.chance(0.5) else "rollback"
