"""Benchmark of the simulator: one workload, one seed, one process.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload fileread --seed 1 --seconds 20 \\
        --trace 0

The run builds the workload's cells from ``--seed``, then executes
them through ``repro.exec.executor.execute_cell``, one cell at a time,
again and again until ``--seconds`` have passed.  Every execution is
checked (status, iterations or guests completed, bit-identical
simulated results on every repeat, and the workload's own invariants).

``--trace 0`` reports the end-to-end metrics: medians over the repeats
of host CPU, host wall and set-up seconds, the process's peak RSS, and
the simulated runtime.  ``--trace 1`` alternates untraced and traced
repeats and reports the per-layer census: span counts and self times
per ``repro`` package, simulated counters, and the tracing overhead.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A run that cannot start (no ``src/repro`` beside this
directory, ambient simulator flags switched on) exits 1 and prints no
result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from spans import LAYER_NAMES, LAYERS, Patcher, SetupTimer, SpanRecorder
from workloads import WORKLOADS, build_cells, cell_problems

ROOT = Path(__file__).resolve().parent.parent

#: Development seed and the held-out seed gain claims are re-checked on.
DEV_SEED = 1
HELD_OUT_SEED = 2

#: Repeat ``k`` of a run executes the cells at seed
#: ``--seed + SEED_STRIDE * (k % SEED_ROUNDS)``, so a run's medians
#: average over several inputs instead of one seed's particular cost.
#: The seed sets of different ``--seed`` values below the stride are
#: disjoint.
SEED_ROUNDS = 4
SEED_STRIDE = 1000

#: Untraced repeats per run, at least, however long they take.
MIN_REPEATS = 2

#: Per-layer counter -> its key in :func:`sim_state`'s dict.
LAYER_COUNTERS = {
    "cluster.migrations": "cluster.migrations",
    "sim.events": "engine.events_dispatched",
    "guest.faults": "counters.guest_context_faults",
    "guest.evictions": "counters.guest_evictions",
    "host.faults": "counters.host_context_faults",
    "host.evictions": "counters.host_evictions",
    "host.stale_reads": "counters.stale_reads",
    "host.false_reads": "counters.false_reads",
    "host.silent_swap_writes": "counters.silent_swap_writes",
    "mem.pages_scanned": "counters.pages_scanned",
    "core.mapper_discards": "counters.mapper_discards",
    "core.preventer_remaps": "counters.preventer_remaps",
    "core.preventer_emulated_writes": "counters.preventer_emulated_writes",
    "disk.requests": "disk.requests",
    "disk.seeks": "disk.seeks",
    "disk.sectors_read": "disk.sectors_read",
    "disk.sectors_written": "disk.sectors_written",
    "disk.busy_sim_s": "disk.busy_time",
    "swapback.pages_stored": "swapback.pages_stored",
    "swapback.pages_loaded": "swapback.pages_loaded",
    "swapback.promotes": "swapback.promotes",
    "swapback.demotes": "swapback.demotes",
    "balloon.inflated_pages": "counters.balloon_inflated_pages",
}

GUEST_EXECUTE = "repro.guest.kernel:GuestKernel.execute"


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------

def env_stamp() -> dict:
    """What produced the numbers: results from another interpreter or
    machine shape are not comparable with these."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc,
        "platform": platform.platform(),
    }


def ambient_flags_on() -> list[str]:
    """Process-wide simulator switches that are not in their default
    (off) state; any of them changes what an untraced run measures."""
    from repro.audit import paranoid_enabled
    from repro.faults.plan import default_fault_config
    from repro.profiling import profiling_dir
    from repro.swapback.base import default_swap_backend
    from repro.trace import tracing_mode

    flags = {
        "paranoid": paranoid_enabled(),
        "tracing": tracing_mode(),
        "profiling": profiling_dir(),
        "default fault config": default_fault_config(),
        "default swap backend": default_swap_backend(),
    }
    return [name for name, value in flags.items() if value]


# ----------------------------------------------------------------------
# simulated state
# ----------------------------------------------------------------------

def _add_numbers(into: dict, values: dict, prefix: str) -> None:
    for name, value in values.items():
        if isinstance(value, (int, float)):
            key = f"{prefix}.{name}"
            into[key] = into.get(key, 0) + value


def sim_state(clusters) -> dict:
    """Summed simulated counters of every cluster a cell built."""
    state: dict = {}
    for cluster in clusters:
        _add_numbers(state, {
            "events_dispatched": cluster.engine.events_dispatched},
            "engine")
        _add_numbers(state, {"migrations": len(cluster.migrations)},
                     "cluster")
        _add_numbers(state, cluster.aggregate_counters(), "counters")
        for host in cluster.hosts:
            _add_numbers(state, vars(host.disk.stats), "disk")
            _add_numbers(state, host.swapback.stats.snapshot(), "swapback")
    return state


# ----------------------------------------------------------------------
# repeats
# ----------------------------------------------------------------------

@dataclass
class Rep:
    """One execution of every cell of the workload."""

    seed: int
    cpu_s: float = 0.0
    wall_s: float = 0.0
    setup_s: float = 0.0
    sim_runtime_s: float = 0.0
    state: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    spans: SpanRecorder | None = None


class Bench:
    """Runs a workload's cells repeatedly and checks every execution."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        #: Cell specs per seed round.
        self.rounds = [build_cells(workload, seed + SEED_STRIDE * k)
                       for k in range(SEED_ROUNDS)]
        self.specs = self.rounds[0]
        self.attempted = 0
        #: ``(cell id, rep index)`` of every failed execution.
        self.failed: set[tuple[str, int]] = set()
        self.reps: list[Rep] = []
        #: (cell id, seed) -> fingerprint of its first execution.
        self._reference: dict[tuple[str, int], str] = {}
        self._clusters: list = []

    def fail(self, cell_id: str, why: str) -> None:
        self.failed.add((cell_id, len(self.reps)))
        print(f"FAIL {self.workload.name} {cell_id} repeat "
              f"{len(self.reps)}: {why}", flush=True)

    def _capture(self, fn, _name):
        clusters = self._clusters

        def init(cluster, *args, **kwargs):
            fn(cluster, *args, **kwargs)
            clusters.append(cluster)
        return init

    def run_rep(self, index: int, traced: bool = False) -> Rep:
        """Execute every cell once, at seed round ``index``."""
        from repro.exec import executor

        flags = [] if traced else ambient_flags_on()
        if flags:
            raise SystemExit(f"error: ambient simulator state is on: "
                             f"{', '.join(flags)}")
        specs = self.rounds[index % SEED_ROUNDS]
        rep = Rep(seed=specs[0].seed,
                  spans=SpanRecorder() if traced else None)
        timer = SetupTimer()
        with Patcher() as patcher:
            patcher.wrap("repro.cluster.cluster", "Cluster.__init__",
                         self._capture)
            timer.install(patcher)
            if rep.spans is not None:
                rep.spans.install(patcher)
            for spec in specs:
                self._run_cell(executor, spec, rep)
        rep.setup_s = timer.seconds
        if rep.spans is not None:
            self._check_spans(rep)
        self._check_invariant(rep)
        self.reps.append(rep)
        return rep

    def _run_cell(self, executor, spec, rep: Rep) -> None:
        gc.collect()
        self._clusters.clear()
        self.attempted += 1
        cpu, wall = time.process_time(), time.perf_counter()
        try:
            result = executor.execute_cell(spec)
        except Exception:  # noqa: BLE001 - a raising cell is a result
            self.fail(spec.cell_id, traceback.format_exc())
            return
        finally:
            rep.cpu_s += time.process_time() - cpu
            rep.wall_s += time.perf_counter() - wall
        state = sim_state(self._clusters)
        self._clusters.clear()
        for problem in cell_problems(spec, result):
            self.fail(spec.cell_id, problem)
        rep.sim_runtime_s += result.runtime or 0.0
        rep.counters[spec.cell_id] = result.counters
        for key, value in state.items():
            rep.state[key] = rep.state.get(key, 0) + value
        fingerprint = json.dumps(
            {"runtime": result.runtime, "counters": result.counters,
             "state": state}, sort_keys=True)
        reference = self._reference.setdefault(
            (spec.cell_id, spec.seed), fingerprint)
        if fingerprint != reference:
            self.fail(spec.cell_id, f"simulated results differ from the "
                      f"first execution at seed {spec.seed}")

    def _check_invariant(self, rep: Rep) -> None:
        """The root-cause counters must not depend on the swap backend."""
        if self.workload.invariant_pair is None:
            return
        from repro.experiments.swaptier import ROOT_CAUSE_COUNTERS

        left, right = self.workload.invariant_pair
        if left not in rep.counters or right not in rep.counters:
            return  # a cell raised; already failed
        for name in ROOT_CAUSE_COUNTERS:
            a = rep.counters[left].get(name)
            b = rep.counters[right].get(name)
            if a != b:
                self.fail(right, f"{name} {b} differs from {left}'s {a}")

    def _check_spans(self, rep: Rep) -> None:
        """Span coverage, nesting, and repeatable counts."""
        spans = rep.spans
        cells = [spec.cell_id for spec in self.specs]
        problems = []
        for layer in self.workload.stresses:
            if spans.calls[layer] == 0:
                problems.append(f"layer {layer} recorded no span")
        if spans.calls["exec"] != len(cells):
            problems.append(f"{spans.calls['exec']} exec spans for "
                            f"{len(cells)} cells")
        if spans.orphans:
            problems.append(f"{spans.orphans} spans outside any cell")
        total = sum(spans.self_s.values())
        if abs(total - spans.root_s) > 1e-6 * max(1.0, spans.root_s):
            problems.append(f"self times sum to {total} s, root spans "
                            f"to {spans.root_s} s")
        first = next((r.spans for r in self.reps
                      if r.spans is not None and r.seed == rep.seed), None)
        if first is not None and first.boundary_calls != spans.boundary_calls:
            problems.append(f"span counts differ from the first traced "
                            f"repeat at seed {rep.seed}")
        for problem in problems:
            for cell_id in cells:
                self.fail(cell_id, problem)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def end_to_end(bench: Bench) -> dict:
    reps = bench.reps
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "cpu_s": (statistics.median(r.cpu_s for r in reps), "s"),
        "wall_s": (statistics.median(r.wall_s for r in reps), "s"),
        "setup_s": (statistics.median(r.setup_s for r in reps), "s"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
        # The seed rounds every run executes, so the value is exact
        # for a given --seed whatever the run's length.
        "sim_runtime_s": (statistics.fmean(
            r.sim_runtime_s for r in reps[:MIN_REPEATS]), "s"),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(bench: Bench) -> dict:
    traced = [r for r in bench.reps if r.spans is not None]
    plain = [r for r in bench.reps if r.spans is None]
    first = traced[0]
    state = first.state
    metrics: dict = {}
    for layer in LAYER_NAMES:
        metrics[f"{layer}.calls"] = (first.spans.calls[layer], "count")
        metrics[f"{layer}.self_s"] = (
            statistics.median(r.spans.self_s[layer] for r in traced), "s")
    metrics["cluster.setup_s"] = (
        statistics.median(r.setup_s for r in traced), "s")
    for name, key in LAYER_COUNTERS.items():
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = (state.get(key, 0), unit)
    metrics["guest.ops"] = (first.spans.boundary_calls[GUEST_EXECUTE],
                            "count")
    metrics["mem.scan_yield"] = (_ratio(
        state.get("counters.host_evictions", 0),
        state.get("counters.pages_scanned", 0)), "ratio")
    remaps = state.get("counters.preventer_remaps", 0)
    metrics["core.preventer_remap_ratio"] = (_ratio(
        remaps, remaps + state.get("counters.preventer_merges", 0)),
        "ratio")
    metrics["disk.seeks_per_request"] = (_ratio(
        state.get("disk.seeks", 0), state.get("disk.requests", 0)), "ratio")
    metrics["trace.overhead"] = (statistics.median(
        t.cpu_s / u.cpu_s for u, t in zip(plain, traced)), "ratio")
    for name in bench.workload.positive:
        if not metrics[name][0] > 0:
            for spec in bench.specs:
                bench.fail(spec.cell_id, f"{name} is {metrics[name][0]}")
    return metrics


def describe(bench: Bench, metrics: dict, traced: bool) -> None:
    """The human-readable report printed before the result line."""
    reps = [r for r in bench.reps if (r.spans is not None) == traced]
    seeds = sorted({r.seed for r in reps})
    print(f"workload {bench.workload.name}: "
          f"{', '.join(s.cell_id for s in bench.specs)}; {len(reps)} "
          f"{'traced ' if traced else ''}repeats at seeds {seeds}")
    print("env " + json.dumps(env_stamp(), sort_keys=True))
    if not traced:
        for name in ("cpu_s", "wall_s", "setup_s"):
            values = sorted(getattr(r, name) for r in reps)
            print(f"  {name:<16} median {metrics[name][0]:.4f} s  "
                  f"min {values[0]:.4f}  max {values[-1]:.4f}  "
                  f"n={len(values)}")
        for name in ("peak_rss_mb", "sim_runtime_s"):
            value, unit = metrics[name]
            print(f"  {name:<16} {value:.6f} {unit}")
    else:
        moves = {layer.name: layer.moves for layer in LAYERS}
        for layer in LAYER_NAMES:
            print(f"  {layer:<9} calls {metrics[layer + '.calls'][0]:>10}"
                  f"  self {metrics[layer + '.self_s'][0]:8.4f} s"
                  f"  -> {moves[layer]}")
        for name, (value, unit) in metrics.items():
            if not name.endswith((".calls", ".self_s")):
                print(f"  {name:<32} {value} {unit}")
    failed = len(bench.failed)
    print(f"  error_rate {failed}/{bench.attempted} = "
          f"{failed / bench.attempted:.4f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=DEV_SEED,
        help=f"workload seed (development seed {DEV_SEED}, held-out seed "
             f"{HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources at {src}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(src))

    bench = Bench(WORKLOADS[args.workload], args.seed)
    traced = bool(args.trace)
    start = time.perf_counter()
    index = 0
    while True:
        bench.run_rep(index)
        if traced:
            bench.run_rep(index, traced=True)
        index += 1
        if (time.perf_counter() - start >= args.seconds
                and (traced or index >= MIN_REPEATS)):
            break
    metrics = per_layer(bench) if traced else end_to_end(bench)
    describe(bench, metrics, traced)
    print(json.dumps({
        "correct": not bench.failed,
        "attempted": bench.attempted,
        "failed": len(bench.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
