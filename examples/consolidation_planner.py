#!/usr/bin/env python3
"""Consolidation planning: how many guests fit on this cluster?

The paper's motivation is consolidation density: "the number of guests
one host can support is typically limited by the physical memory size."
This example runs the ``cluster`` experiment -- 4/8/16 phased
MapReduce guests placed across a four-node cluster per placement
policy -- and reports, per memory-management configuration, the
largest fleet whose average slowdown against the unloaded singleton
stays under a target: the capacity-planning question an operator
would actually ask of this library.

Because it rides the sweep layer, the run parallelizes with ``--jobs``
and caches into ``--results-dir`` (rerun with ``--resume`` for free
regeneration), and the unloaded singleton is one shared cell per
configuration rather than re-measured per fleet size.

Run:  python examples/consolidation_planner.py [--scale N] [--jobs N]
          [--results-dir DIR [--resume]]
"""

import argparse

from repro.exec.executor import make_executor
from repro.exec.store import ResultStore
from repro.experiments.cluster import FLEET_SIZES
from repro.experiments.registry import run_experiment

#: Accept fleets whose average runtime is within this factor of an
#: unloaded single guest.
SLOWDOWN_BUDGET = 1.5


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale", type=int, default=16,
        help="divide all sizes by this (default: 16, demo-snappy)")
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the sweep (default: 1)")
    parser.add_argument(
        "--results-dir", default=None,
        help="persist cells/figures here (enables caching)")
    parser.add_argument(
        "--resume", action="store_true",
        help="serve already-stored cells from the cache")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    store = ResultStore(args.results_dir) if args.results_dir else None
    if args.resume and store is None:
        raise SystemExit("--resume requires --results-dir")

    print(f"Cluster: four 4GB nodes (scaled 1/{args.scale}), overcommit "
          f"ratio 2.0, swap budgets 512MB; guests: 2GB MapReduce.")
    print(f"Capacity = most guests with average slowdown "
          f"<= {SLOWDOWN_BUDGET}x the unloaded singleton.\n")

    result = run_experiment(
        "cluster",
        scale=args.scale,
        executor=make_executor(args.jobs),
        store=store,
        resume=args.resume,
    )

    sizes = tuple(str(n) for n in FLEET_SIZES)
    for config, by_policy in result.series.items():
        for policy, rows in by_policy.items():
            if policy == "solo":
                continue
            capacity = 0
            worst = None
            for n in sizes:
                slowdown = rows[n]["slowdown"]
                if slowdown is None:  # the fleet did not fit
                    continue
                worst = slowdown
                if rows[n]["oom_kills"] == 0 \
                        and slowdown <= SLOWDOWN_BUDGET:
                    capacity = int(n)
            worst_text = "-" if worst is None else f"{worst:4.2f}x"
            print(f"{config:14s} {policy:10s} capacity: {capacity:2d} "
                  f"guests (worst completed slowdown: {worst_text})")

    stats = result.stats
    if stats is not None:
        print(f"\n[{stats.cells} cells: {stats.executed} executed, "
              f"{stats.cached} cached]")
    print("\nVSwapper configurations sustain deeper overcommitment at")
    print("the same service level -- the paper's consolidation claim.")


if __name__ == "__main__":
    main()
