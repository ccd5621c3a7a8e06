"""Figure 9: anatomy of uncooperative swapping over 8 iterations.

Paper shapes: (a) U-shaped baseline runtime, flat vswapper/balloon;
(b) host faults spike in iteration 1 (stale reads) then track false
page anonymity; (c) guest faults grow with decayed sequentiality;
(d) swap sectors written roughly constant for baseline, zero for
vswapper.
"""

from benchmarks.conftest import run_once
from repro.experiments.fig09 import build_fig09_sweep
from repro.experiments.registry import run_experiment


def test_bench_fig09(benchmark, bench_scale, record_result, bench_store):
    result = run_once(
        benchmark, lambda: run_experiment(
            "fig9", scale=bench_scale, store=bench_store, iterations=8))
    record_result(
        result, sweep=build_fig09_sweep(scale=bench_scale, iterations=8))
    base = result.series["baseline"]
    vsw = result.series["vswapper"]
    balloon = result.series["balloon+base"]

    # (a) baseline slowest everywhere; vswapper & balloon flat.
    assert all(b > v for b, v in zip(base["runtime"], vsw["runtime"]))
    assert max(vsw["runtime"]) < 2 * min(vsw["runtime"])
    assert max(balloon["runtime"]) < 1.5 * min(balloon["runtime"])

    # (b) stale reads only in iteration 1.
    assert base["stale_reads"][0] > 0
    assert sum(base["stale_reads"][1:]) == 0

    # (c) decayed sequentiality: guest faults grow over iterations.
    assert base["guest_faults"][-1] > base["guest_faults"][1]
    assert sum(vsw["guest_faults"]) < sum(base["guest_faults"])

    # (d) baseline rewrites the file's worth of sectors every
    # iteration; vswapper writes nothing.
    later = base["swap_sectors_written"][1:]
    assert max(later) < 1.4 * min(later)
    assert sum(vsw["swap_sectors_written"]) == 0
