"""Command-line interface: regenerate the paper's tables and figures.

Examples::

    vswapper-repro list
    vswapper-repro run fig3 --scale 4
    vswapper-repro run all --scale 8 --jobs 4 --results-dir results/
    vswapper-repro run all --scale 8 --jobs 4 --results-dir results/ --resume

``--jobs N`` fans the experiment's cells out over N worker processes;
results are bit-identical to ``--jobs 1`` (each cell builds its own
seeded machine and the executor gathers results in declaration order).
``--results-dir`` persists every cell and figure as JSON; adding
``--resume`` skips any cell whose content hash is already stored, so an
interrupted ``run all`` restarts where it died.

Supervision flags harden long sweeps: ``--timeout S`` gives each cell
a wall-clock deadline, ``--retries N`` bounds how often a hung or dead
worker is retried before the cell is quarantined as an explicit hole,
and ``--kill-workers RATE`` injects deterministic worker-process
deaths to exercise exactly that recovery path.  ``--paranoid`` turns
on the runtime invariant auditor inside every simulation.

``--profile`` wraps every cell runner in cProfile and writes a
hot-function report per cell (under ``<results-dir>/profiles/``)
without changing any result -- the perf-work lever DESIGN.md
section 12 describes.

``--trace`` records a structured event trace per cell (composing with
``--jobs``, ``--resume``, and ``--paranoid``); the ``trace``
subcommand exports stored traces as Chrome trace-event JSON, re-derives
the paper's root-cause counts from events (cross-checked against the
counters), and ranks the guest operations that caused the most
host-side work.

The result store itself is crash-safe and auditable: ``--store-faults
RATE`` arms deterministic crash points inside the store's write path
(abort before/after rename, torn records, lock stalls), ``--verify-
store`` checksums every record before trusting a ``--resume``, and the
``store`` subcommand repairs stores offline (``verify`` exits 1 on any
integrity failure, ``gc`` sweeps write debris, ``compact`` rewrites
one record per live key and drops the quarantine).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from repro.errors import ConfigError, ReproError
from repro.experiments.registry import (
    cell_count,
    describe,
    experiment_ids,
    run_experiment,
)

#: Scale used for the ``list`` command's cell counts (the run default).
DEFAULT_SCALE = 4


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be non-negative, got {value}")
    return value


def _rate(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"must be a rate in [0, 1], got {value}")
    return value


def _validate_host_fault_rate(rate: float | None) -> None:
    """The one authoritative ``--host-faults`` check (typed, like
    ``_validate_jobs``): a crash rate of zero or less arms nothing and
    is a misconfiguration, not a no-op."""
    if rate is None:
        return
    if not 0.0 < rate <= 1.0:
        raise ConfigError(
            f"--host-faults must be a rate in (0, 1], got {rate}")


def _validate_evac_deadline(deadline: float | None) -> None:
    """The one authoritative ``--evac-deadline`` check: a non-positive
    deadline would lose every evacuated VM at its first attempt."""
    if deadline is None:
        return
    if deadline <= 0:
        raise ConfigError(
            f"--evac-deadline must be positive, got {deadline}")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="vswapper-repro",
        description=(
            "Reproduction of 'VSwapper: A Memory Swapper for Virtualized "
            "Environments' (ASPLOS 2014) -- regenerate the paper's "
            "evaluation from a full-system simulation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible experiments")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument(
        "experiment",
        help="experiment id (see 'list'), or 'all'")
    run.add_argument(
        "--scale", type=_positive_int, default=DEFAULT_SCALE,
        help="size divisor: 1 = paper-sized (slow), 4-8 = laptop-sized "
             "(default: 4)")
    run.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="worker processes for sweep cells; results are "
             "bit-identical to --jobs 1 (default: 1)")
    run.add_argument(
        "--results-dir", default=None,
        help="persist per-cell and per-figure results as JSON under "
             "this directory")
    run.add_argument(
        "--resume", action="store_true",
        help="skip cells already present in --results-dir (content-"
             "hash match); requires --results-dir")
    run.add_argument(
        "--faults", action="store_true",
        help="inject the standing chaos fault plan (deterministic, "
             "seeded from each experiment's machine seed)")
    run.add_argument(
        "--swap-backend", default=None, metavar="KIND",
        help="serve host swap from this backend instead of the shared "
             "disk: ssd, nvme, zram (compressed RAM), remote "
             "(disaggregated memory), or tiered (zram over ssd); "
             "'disk' is the default paper-faithful path")
    run.add_argument(
        "--timeout", type=_positive_float, default=None, metavar="SECONDS",
        help="per-cell wall-clock deadline; a cell past it is killed, "
             "retried, and eventually quarantined (selects the "
             "supervised executor)")
    run.add_argument(
        "--retries", type=_non_negative_int, default=None, metavar="N",
        help="retries per cell for environmental failures -- timeouts "
             "and dead workers -- before quarantine (default: 2 under "
             "supervision)")
    run.add_argument(
        "--kill-workers", type=_rate, default=0.0, metavar="RATE",
        help="chaos: deterministically kill this fraction of first "
             "worker attempts mid-cell to exercise crash recovery")
    run.add_argument(
        "--host-faults", type=float, default=None, metavar="RATE",
        help="chaos: seeded per-host crash probability for cluster "
             "experiments; crashed hosts' VMs evacuate (with retry/"
             "backoff) or surface as typed VmLost holes")
    run.add_argument(
        "--host-faults-seed", type=int, default=1, metavar="N",
        help="seed of the host-fault schedule (default: 1); the same "
             "seed replays the same crash/evacuation sequence")
    run.add_argument(
        "--evac-deadline", type=float, default=None, metavar="SECONDS",
        help="virtual-time budget to re-home each VM of a crashed host "
             "before it is recorded lost (default: 60)")
    run.add_argument(
        "--paranoid", action="store_true",
        help="run the invariant auditor inside every simulation "
             "(frame conservation, EPT/mapper consistency, clock "
             "monotonicity); violations crash the cell")
    run.add_argument(
        "--profile", action="store_true",
        help="profile every cell with cProfile and write a hot-"
             "function report per cell (cumulative / internal / call-"
             "count views) under <results-dir>/profiles/, or "
             "./profiles/ without --results-dir; results stay bit-"
             "identical")
    run.add_argument(
        "--trace", nargs="?", const="full", default=None,
        choices=("full", "sampled"), metavar="MODE",
        help="record a structured event trace per cell (stored with "
             "the cell result); MODE is 'full' (default) or 'sampled' "
             "(every 8th top-level span)")
    run.add_argument(
        "--store-faults", type=_rate, default=0.0, metavar="RATE",
        help="chaos: arm every store crash point (abort before/after "
             "rename, torn record, lock stall) at this probability per "
             "record; deterministic and at most once per (point, "
             "record), so crash-then-resume always converges (requires "
             "--results-dir)")
    run.add_argument(
        "--store-faults-seed", type=int, default=1, metavar="N",
        help="seed of the store fault plan (default: 1)")
    run.add_argument(
        "--verify-store", action="store_true",
        help="verify every store record's checksum before running, "
             "quarantining corrupt ones (they re-run as cache misses); "
             "requires --results-dir")

    trace = sub.add_parser(
        "trace",
        help="inspect traces recorded by 'run --trace' (export / "
             "analyze / top-spans)")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    for name, help_text in (
            ("export", "write a Chrome trace-event JSON file "
                       "(chrome://tracing, Perfetto)"),
            ("analyze", "re-derive the paper's root-cause counts from "
                        "events and cross-check them against Counters"),
            ("top-spans", "guest operations that caused the most "
                          "host-side events")):
        cmd = trace_sub.add_parser(name, help=help_text)
        cmd.add_argument(
            "experiment", help="experiment id (see 'list')")
        cmd.add_argument(
            "--results-dir", required=True,
            help="store the traced cells were persisted to")
        cmd.add_argument(
            "--scale", type=_positive_int, default=DEFAULT_SCALE,
            help="size divisor the traced run used (default: 4)")
        if name == "export":
            cmd.add_argument(
                "--out", default=None, metavar="PATH",
                help="output path (default: <experiment>-trace.json)")
        if name == "top-spans":
            cmd.add_argument(
                "--limit", type=_positive_int, default=10,
                help="spans to show per cell (default: 10)")

    store = sub.add_parser(
        "store",
        help="audit/repair a results store (verify / gc / compact)")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    for name, help_text in (
            ("verify", "walk every record, verify payload checksums; "
                       "exit 1 on any integrity failure"),
            ("gc", "sweep orphaned tmp files and stale-hash duplicate "
                   "records"),
            ("compact", "rewrite one normalized record per live key, "
                        "dropping stale records and the quarantine")):
        cmd = store_sub.add_parser(name, help=help_text)
        cmd.add_argument(
            "--results-dir", required=True,
            help="the store to operate on")
        if name == "verify":
            cmd.add_argument(
                "--quarantine", action="store_true",
                help="move records that fail verification to "
                     "quarantine/ (default: report only)")

    chaos = sub.add_parser(
        "chaos",
        help="chaos run: the five standard configs under fault injection")
    chaos.add_argument(
        "--scale", type=_positive_int, default=DEFAULT_SCALE,
        help="size divisor (default: 4)")
    chaos.add_argument(
        "--seed", type=int, default=1,
        help="fault plan / machine seed (default: 1)")
    return parser


def _run_one(experiment_id: str, scale: int, *, executor=None,
             store=None, resume: bool = False,
             ) -> tuple[int, int, int, int, int, float]:
    from repro.experiments.plots import chart_for

    started = time.time()
    result = run_experiment(experiment_id, scale=scale, executor=executor,
                            store=store, resume=resume)
    elapsed = time.time() - started
    print(result.rendered)
    chart = chart_for(result)
    if chart:
        print()
        print(chart)
    stats = result.stats
    cells = stats.cells if stats else 0
    executed = stats.executed if stats else 0
    cached = stats.cached if stats else 0
    retried = stats.retried if stats else 0
    quarantined = stats.quarantined if stats else 0
    cached_wall = stats.cached_wall_seconds if stats else 0.0
    note = ""
    if stats and stats.all_cached:
        # The stored wall time is what these cells cost when they were
        # originally executed -- a resume is not "free".
        note = (f" (cached, 0 executed; originally {cached_wall:.1f}s "
                f"wall time)")
    print(f"[{experiment_id}: regenerated in {elapsed:.1f}s wall time; "
          f"cells={cells} executed={executed} cached={cached} "
          f"retried={retried} quarantined={quarantined}{note}]")
    if stats and stats.cached_traceless:
        print(f"[{experiment_id}: trace unavailable (cached) for "
              f"{stats.cached_traceless} cell(s); re-run without "
              f"--resume to record traces]")
    print()
    return cells, executed, cached, retried, quarantined, cached_wall


def _run_context(args: argparse.Namespace) -> RunContext:
    """The one :class:`RunContext` a ``run`` invocation installs.

    Its fault plan and swap backend are captured into every cell spec
    the sweeps build, so worker processes and cache keys both see
    them; the other three fields only observe.
    """
    from dataclasses import replace
    from pathlib import Path

    from repro.config import FaultConfig
    from repro.context import RunContext

    faults = None
    if (args.faults or args.kill_workers or args.host_faults is not None
            or args.evac_deadline is not None):
        faults = FaultConfig.chaos() if args.faults else FaultConfig()
        faults = replace(faults, enabled=True,
                         worker_kill_rate=args.kill_workers)
        if args.host_faults is not None:
            faults = replace(faults, host_crash_rate=args.host_faults,
                             host_fault_seed=args.host_faults_seed)
        if args.evac_deadline is not None:
            faults = replace(faults, evac_deadline=args.evac_deadline)
    profile_dir = None
    if args.profile:
        profile_dir = str(Path(args.results_dir or ".") / "profiles")
    return RunContext(
        faults=faults,
        swap_backend=(args.swap_backend
                      if args.swap_backend and args.swap_backend != "disk"
                      else None),
        paranoid=args.paranoid, trace=args.trace, profile_dir=profile_dir)


def _run_command(args: argparse.Namespace) -> int:
    from repro.context import run_context
    from repro.exec.executor import make_executor
    from repro.exec.store import ResultStore
    from repro.faults.plan import StoreFaultConfig

    _validate_host_fault_rate(args.host_faults)
    _validate_evac_deadline(args.evac_deadline)
    if args.resume and not args.results_dir:
        raise ConfigError(
            "--resume requires --results-dir (there is no store to "
            "resume from)")
    if args.store_faults and not args.results_dir:
        raise ConfigError(
            "--store-faults requires --results-dir (there is no store "
            "to inject into)")
    if args.verify_store and not args.results_dir:
        raise ConfigError(
            "--verify-store requires --results-dir (there is no store "
            "to verify)")
    store_faults = None
    if args.store_faults:
        store_faults = StoreFaultConfig.chaos(
            rate=args.store_faults, seed=args.store_faults_seed)
    store = (ResultStore(args.results_dir, faults=store_faults)
             if args.results_dir else None)
    if store is not None and args.verify_store:
        report = store.verify(quarantine=True)
        print(f"[{report.describe()}]")
    executor = make_executor(args.jobs, timeout=args.timeout,
                             retries=args.retries,
                             supervise=args.kill_workers > 0)

    ctx = _run_context(args)
    with run_context(ctx):
        if args.experiment == "all":
            totals = [0, 0, 0, 0, 0, 0.0]
            for experiment_id in experiment_ids():
                counts = _run_one(
                    experiment_id, args.scale, executor=executor,
                    store=store, resume=args.resume)
                totals = [t + c for t, c in zip(totals, counts)]
            print(f"[all: cells={totals[0]} executed={totals[1]} "
                  f"cached={totals[2]} retried={totals[3]} "
                  f"quarantined={totals[4]} "
                  f"cached-wall={totals[5]:.1f}s]")
        else:
            _run_one(args.experiment, args.scale, executor=executor,
                     store=store, resume=args.resume)
    if ctx.profile_dir is not None:
        print(f"[cell profiles written under {ctx.profile_dir}/]")
    return 0


def _store_command(args: argparse.Namespace) -> int:
    from repro.exec.store import ResultStore

    store = ResultStore(args.results_dir)
    if args.store_command == "verify":
        report = store.verify(quarantine=args.quarantine)
        print(report.describe())
        for rel, reason, detail in report.corrupt:
            print(f"CORRUPT {rel}: {reason}: {detail}", file=sys.stderr)
        for why in store.quarantined():
            print(f"quarantined {why.get('source')}: "
                  f"{why.get('reason')}: {why.get('detail')}")
        return 0 if report.ok else 1
    if args.store_command == "gc":
        print(store.gc().describe())
        return 0
    print(store.compact().describe())
    return 0


def _trace_command(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.exec.store import ResultStore
    from repro.trace.tools import (
        analyze_experiment,
        export_experiment,
        top_spans_report,
    )

    store = ResultStore(args.results_dir)
    if args.trace_command == "export":
        out = Path(args.out if args.out
                   else f"{args.experiment}-trace.json")
        path, notes = export_experiment(
            store, args.experiment, scale=args.scale, out=out)
        for note in notes:
            print(f"[{args.experiment}: {note}]")
        print(f"wrote {path}")
        return 0
    if args.trace_command == "analyze":
        report = analyze_experiment(
            store, args.experiment, scale=args.scale)
        print(report.rendered)
        for note in report.notes:
            print(f"[{args.experiment}: {note}]")
        for mismatch in report.mismatches:
            print(f"MISMATCH {mismatch}", file=sys.stderr)
        return 0 if report.ok else 1
    rendered, notes = top_spans_report(
        store, args.experiment, scale=args.scale, limit=args.limit)
    print(rendered)
    for note in notes:
        print(f"[{args.experiment}: {note}]")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        ids = experiment_ids()
        width = max(len(i) for i in ids)
        for experiment_id in ids:
            cells = cell_count(experiment_id, scale=DEFAULT_SCALE)
            print(f"{experiment_id:<{width}}  cells={cells:<3} "
                  f"{describe(experiment_id)}")
        return 0

    if args.command == "chaos":
        try:
            result = run_experiment("chaos", scale=args.scale,
                                    seed=args.seed)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        print(result.rendered)
        return 0

    if args.command == "trace":
        try:
            return _trace_command(args)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1

    if args.command == "store":
        try:
            return _store_command(args)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1

    try:
        return _run_command(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - module execution
    sys.exit(main())
