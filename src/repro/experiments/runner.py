"""Shared experiment machinery.

The paper evaluates five configurations (Section 5): *baseline*
(uncooperative swapping only), *balloon* (+ baseline fallback),
*mapper* (VSwapper without the Preventer), *vswapper* (both
components), and *balloon + vswapper*.  :func:`standard_configs` builds
them; :class:`SingleVmExperiment` runs one workload under one of them
with a fixed actual-memory grant (the Section 5.1 controlled setup).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.cluster import Cluster
from repro.config import (
    ClusterConfig,
    GuestConfig,
    VmConfig,
    VSwapperConfig,
)
from repro.driver import VmDriver
from repro.errors import (
    ConsistencyError,
    DiskError,
    ExperimentError,
    FaultError,
    GuestOomKill,
    HostError,
    InvariantViolation,
    SimulationError,
)
from repro.metrics.timeline import Timeline
from repro.sim.engine import Engine
from repro.trace.events import TraceData
from repro.units import mib_pages
from repro.workloads.base import Workload


class ConfigName(str, enum.Enum):
    """The paper's evaluated configurations."""

    BASELINE = "baseline"
    BALLOON_BASELINE = "balloon+base"
    MAPPER = "mapper"
    VSWAPPER = "vswapper"
    BALLOON_VSWAPPER = "balloon+vswap"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class ConfigSpec:
    """How one named configuration is realized."""

    name: ConfigName
    vswapper: VSwapperConfig
    ballooned: bool


def standard_configs(
    names: Sequence[ConfigName] | None = None) -> list[ConfigSpec]:
    """The evaluated configuration matrix, in the paper's order."""
    all_specs = [
        ConfigSpec(ConfigName.BASELINE, VSwapperConfig.off(), False),
        ConfigSpec(ConfigName.BALLOON_BASELINE, VSwapperConfig.off(), True),
        ConfigSpec(ConfigName.MAPPER, VSwapperConfig.mapper_only(), False),
        ConfigSpec(ConfigName.VSWAPPER, VSwapperConfig.full(), False),
        ConfigSpec(ConfigName.BALLOON_VSWAPPER, VSwapperConfig.full(), True),
    ]
    if names is None:
        return all_specs
    wanted = set(names)
    return [s for s in all_specs if s.name in wanted]


#: Version of the persisted result schema.  Bumped whenever the shape
#: or semantics of RunResult/FigureResult change; the result store
#: folds it into every cache key, so stale entries become cache misses
#: instead of wrong answers.
RESULT_SCHEMA_VERSION = 2


def _require_schema(data: dict, kind: str) -> None:
    found = data.get("schema")
    if found != RESULT_SCHEMA_VERSION:
        raise ExperimentError(
            f"{kind} schema version {found!r} != {RESULT_SCHEMA_VERSION} "
            f"(refusing to deserialize)")


@dataclass
class PhaseMark:
    """One MarkPhase observation, with a counter snapshot at that time."""

    name: str
    payload: dict
    time: float
    counters: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready form (payloads carry primitives only)."""
        return {
            "schema": RESULT_SCHEMA_VERSION,
            "name": self.name,
            "payload": self.payload,
            "time": self.time,
            "counters": self.counters,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PhaseMark":
        """Inverse of :meth:`to_dict`."""
        _require_schema(data, "PhaseMark")
        return cls(
            name=data["name"],
            payload=dict(data["payload"]),
            time=data["time"],
            counters=dict(data["counters"]),
        )


#: Fault-induced failures the runner reports as a *crashed* cell (the
#: paper's missing OOM bars) instead of aborting the whole sweep.
#: Harness bugs (ExperimentError, ConfigError) still propagate.
FAULT_INDUCED_ERRORS = (
    FaultError, HostError, ConsistencyError, DiskError, SimulationError)


@dataclass
class RunResult:
    """Outcome of one workload run under one configuration."""

    config: ConfigName
    runtime: float | None
    crashed: bool
    counters: dict[str, int]
    phases: list[PhaseMark] = field(default_factory=list)
    timeline: Timeline | None = None
    #: A fault circuit breaker dropped the VM to baseline swapping
    #: mid-run (the run still completed, in degraded mode).
    degraded: bool = False
    #: ``"ErrorType: message"`` when ``crashed`` came from an exception
    #: the runner caught (None for clean runs and OOM-kill crashes).
    crash_reason: str | None = None
    #: Structured event trace; recorded only under ``--trace`` (None
    #: otherwise, and None for results cached from untraced runs).
    trace: TraceData | None = None

    @property
    def status(self) -> str:
        """Cell status for sweep tables: ok / degraded / crashed."""
        if self.crashed:
            return "crashed"
        return "degraded" if self.degraded else "ok"

    def phase_times(self, name: str) -> list[float]:
        """Times of every occurrence of phase ``name``."""
        return [p.time for p in self.phases if p.name == name]

    def _check_iteration_marks(self, starts: int, ends: int) -> None:
        """A crashed run may leave its final iteration open (started but
        never finished); any other imbalance is a harness bug."""
        if starts == ends:
            return
        if self.crashed and starts == ends + 1:
            return
        raise ExperimentError(
            f"unbalanced iteration marks: {starts} starts, {ends} ends")

    def iteration_durations(self) -> list[float]:
        """Durations of *completed* iteration-start/iteration-end pairs."""
        starts = self.phase_times("iteration-start")
        ends = self.phase_times("iteration-end")
        self._check_iteration_marks(len(starts), len(ends))
        return [e - s for s, e in zip(starts, ends)]

    def iteration_counter_deltas(self, counter: str) -> list[int]:
        """Per-iteration change of one counter (Figure 9b--9d series)."""
        starts = [p for p in self.phases if p.name == "iteration-start"]
        ends = [p for p in self.phases if p.name == "iteration-end"]
        self._check_iteration_marks(len(starts), len(ends))
        return [
            e.counters.get(counter, 0) - s.counters.get(counter, 0)
            for s, e in zip(starts, ends)
        ]

    def to_dict(self, *, include_timeline: bool = True) -> dict:
        """JSON-ready form.

        ``include_timeline=False`` opts the (potentially large) sampled
        timeline out; the round trip then yields ``timeline=None``.
        """
        timeline = None
        if include_timeline and self.timeline is not None:
            timeline = self.timeline.to_dict()
        return {
            "schema": RESULT_SCHEMA_VERSION,
            "config": self.config.value,
            "runtime": self.runtime,
            "crashed": self.crashed,
            "counters": self.counters,
            "phases": [p.to_dict() for p in self.phases],
            "timeline": timeline,
            "degraded": self.degraded,
            "crash_reason": self.crash_reason,
            "trace": self.trace.to_dict() if self.trace is not None
            else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        """Inverse of :meth:`to_dict`."""
        _require_schema(data, "RunResult")
        timeline = (Timeline.from_dict(data["timeline"])
                    if data.get("timeline") is not None else None)
        return cls(
            config=ConfigName(data["config"]),
            runtime=data["runtime"],
            crashed=data["crashed"],
            counters=dict(data["counters"]),
            phases=[PhaseMark.from_dict(p) for p in data["phases"]],
            timeline=timeline,
            degraded=data["degraded"],
            crash_reason=data.get("crash_reason"),
            trace=(TraceData.from_dict(data["trace"])
                   if data.get("trace") is not None else None),
        )


def run_guarded(config: ConfigName, body: Callable[[], RunResult],
                crashed: Callable[[str], RunResult] | None = None,
                ) -> RunResult:
    """Run one cell's ``body``, reporting a fault-induced error as a crash.

    An error in :data:`FAULT_INDUCED_ERRORS` becomes ``crashed(reason)``
    (default: a bare crashed result for ``config``) with reason
    ``"ErrorType: message"``, so the sweep goes on with a figure hole.
    :class:`InvariantViolation` derives SimulationError but is a
    simulator bug, not a hole: it propagates and aborts the sweep,
    serial or on the worker pool.
    """
    try:
        return body()
    except InvariantViolation:
        raise
    except FAULT_INDUCED_ERRORS as error:
        reason = f"{type(error).__name__}: {error}"
        if crashed is None:
            return RunResult(config=config, runtime=None, crashed=True,
                             counters={}, crash_reason=reason)
        return crashed(reason)


@dataclass(frozen=True)
class SweepStats:
    """Execution accounting for one sweep (reported, never persisted)."""

    experiment_id: str
    cells: int
    executed: int
    cached: int
    #: Summed per-cell wall time of the cells executed this run.
    wall_seconds: float = 0.0
    #: Cells the supervisor had to re-run at least once (they may still
    #: have succeeded).
    retried: int = 0
    #: Cells quarantined as typed CellFailure records after retries.
    quarantined: int = 0
    #: Summed wall time the store recorded for cache-hit cells -- what
    #: regenerating them originally cost, so resume summaries do not
    #: read as near-zero "run time".
    cached_wall_seconds: float = 0.0
    #: Cache-hit cells whose stored result carries no trace while this
    #: run asked for tracing (the "trace unavailable (cached)" note).
    cached_traceless: int = 0

    @property
    def all_cached(self) -> bool:
        """Whether a resume skipped every cell (none failed either)."""
        return self.cells > 0 and self.executed == 0 \
            and self.quarantined == 0


@dataclass
class FigureResult:
    """A regenerated table/figure: raw series plus rendered text.

    ``series`` must hold JSON-serializable data only (string keys,
    primitive leaves), so every figure persists faithfully through the
    result store.
    """

    figure_id: str
    series: dict
    rendered: str
    #: How the sweep behind this figure executed (cache hits etc.).
    #: Presentation metadata: excluded from equality and serialization.
    stats: SweepStats | None = field(default=None, compare=False)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.rendered

    def to_dict(self) -> dict:
        """JSON-ready form (``stats`` intentionally omitted)."""
        return {
            "schema": RESULT_SCHEMA_VERSION,
            "figure_id": self.figure_id,
            "series": self.series,
            "rendered": self.rendered,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FigureResult":
        """Inverse of :meth:`to_dict`."""
        _require_schema(data, "FigureResult")
        return cls(
            figure_id=data["figure_id"],
            series=data["series"],
            rendered=data["rendered"],
        )


def scaled_guest_config(guest_mib: float, scale: int,
                        **overrides) -> GuestConfig:
    """A GuestConfig with memory *and* kernel reserve scaled together.

    Keeping the reserve proportional preserves OOM crossover points
    when experiments run at reduced scale.
    """
    defaults = dict(
        memory_pages=mib_pages(guest_mib / scale),
        kernel_reserve_pages=mib_pages(16 / scale),
        guest_swap_pages=mib_pages(1024 / scale),
    )
    defaults.update(overrides)
    return GuestConfig(**defaults)


def run_to_completion(engine: Engine, drivers: Sequence[VmDriver], *,
                      slice_seconds: float) -> None:
    """Run ``engine`` in ``slice_seconds`` slices until every driver has
    finished or crashed, then stop it.

    Periodic tasks (timeline sampling, balloon and migration ticks)
    would keep the queue alive forever, so the engine is stopped once
    the workloads are done -- however the run ends, crashes included.
    The slice length is observable: the final virtual time, and any
    samples taken after the last workload finished, end on a slice
    boundary.
    """
    try:
        while not all(driver.done for driver in drivers):
            if engine.pending_events() == 0:
                raise ExperimentError(
                    "engine drained before every workload finished")
            engine.run(until=engine.now + slice_seconds)
    finally:
        engine.stop()


class SingleVmExperiment:
    """Controlled-memory-assignment harness (Section 5.1).

    One guest that believes it has ``guest_config.memory_pages`` of
    memory while the host actually grants ``actual_mib``: balloon
    configurations inform the guest by statically inflating
    ``guest - actual``; uncooperative configurations enforce it with a
    resident limit.  Each run builds a one-host
    :class:`~repro.cluster.Cluster` from ``cluster_config``.
    """

    def __init__(
        self,
        *,
        guest_config: GuestConfig,
        actual_mib: float = 100,
        cluster_config: ClusterConfig = ClusterConfig(),
        files: Sequence[tuple[str, int]] = (),
        sample_interval: float | None = None,
    ) -> None:
        self.guest_pages = guest_config.memory_pages
        self.actual_pages = mib_pages(actual_mib)
        if self.actual_pages > self.guest_pages:
            raise ExperimentError(
                f"actual memory ({actual_mib} MiB) exceeds guest memory "
                f"({self.guest_pages} pages)")
        self.cluster_config = cluster_config
        self.guest_config = guest_config
        self.files = list(files)
        self.sample_interval = sample_interval

    def run(self, spec: ConfigSpec, workload: Workload) -> RunResult:
        """Execute ``workload`` under configuration ``spec``."""
        cluster = Cluster(self.cluster_config)
        balloon = (self.guest_pages - self.actual_pages
                   if spec.ballooned else 0)
        vm_config = VmConfig(
            name="vm0",
            guest=self.guest_config,
            vswapper=spec.vswapper,
            resident_limit_pages=self.actual_pages,
        )
        phases: list[PhaseMark] = []
        vm = cluster.create_vm(vm_config)
        # Uptime history first, then the balloon policy -- the order a
        # real deployment experiences them in.
        vm.host.boot_guest(vm)
        try:
            if balloon:
                vm.host.apply_static_balloon(vm, balloon)
        except GuestOomKill as error:
            # Over-ballooning killed the workload during static setup.
            return RunResult(spec.name, None, True, {}, phases,
                             crash_reason=f"GuestOomKill: {error}",
                             trace=cluster.trace.finish())

        def on_phase(name: str, payload: dict, time: float) -> None:
            phases.append(
                PhaseMark(name, payload, time, vm.counters.snapshot()))
        for file_name, file_pages in self.files:
            vm.guest.fs.create_file(file_name, file_pages)

        timeline = None
        if self.sample_interval is not None:
            timeline = Timeline()
            self._register_gauges(timeline, vm)
            cluster.engine.add_periodic(
                self.sample_interval,
                lambda: timeline.sample_all(cluster.now))

        driver = VmDriver(vm, workload, phase_callback=on_phase)

        def result(runtime, crashed: bool, reason=None) -> RunResult:
            return RunResult(
                spec.name, runtime, crashed, vm.counters.snapshot(), phases,
                timeline, degraded=vm.degraded, crash_reason=reason,
                trace=cluster.trace.finish())

        def finish() -> RunResult:
            run_to_completion(cluster.engine, [driver], slice_seconds=30.0)
            return result(None if driver.crashed else driver.runtime,
                          driver.crashed)

        return run_guarded(spec.name, finish,
                           lambda reason: result(None, True, reason))

    @staticmethod
    def _register_gauges(timeline: Timeline, vm) -> None:
        timeline.register(
            "guest_page_cache", lambda: vm.guest.cache.cached_pages)
        timeline.register(
            "guest_page_cache_clean", lambda: vm.guest.cache.clean_pages)
        timeline.register(
            "mapper_tracked",
            lambda: (vm.mapper.tracked_pages if vm.mapper else 0))
