"""Cluster-chaos experiment: sweep shape, determinism, survivor check.

The heavy acceptance properties run on single cells at 1/8 scale: a
seeded crash schedule replays bit-identically, survivors on untouched
hosts match the fault-free twin, and a fleet the survivors cannot
absorb surfaces typed ``VmLost`` holes instead of hanging or dropping
VMs.  The assembler's bit-drift detector is exercised on fabricated
results so the failure path is covered without forcing a real drift.
"""

import pytest

from repro.experiments.cluster_chaos import (
    CHAOS_FLEET_SIZES,
    CHAOS_POLICIES,
    SCHEDULES,
    assemble_cluster_chaos,
    build_cluster_chaos_sweep,
    cluster_chaos_cell,
    schedule_fault_config,
)
from repro.experiments.runner import ConfigName, PhaseMark, RunResult

SCALE = 8


def _spec(sweep, cell_id):
    [spec] = [cell for cell in sweep.cells if cell.cell_id == cell_id]
    return spec


@pytest.fixture(scope="module")
def sweep():
    return build_cluster_chaos_sweep(scale=SCALE)


@pytest.fixture(scope="module")
def baseline_cell(sweep):
    return cluster_chaos_cell(_spec(sweep, "none@balancex4"))


@pytest.fixture(scope="module")
def crash_one_cell(sweep):
    return cluster_chaos_cell(_spec(sweep, "crash-one@balancex4"))


# ----------------------------------------------------------------------
# sweep declaration
# ----------------------------------------------------------------------

def test_sweep_crosses_schedules_policies_and_fleet_sizes(sweep):
    assert len(sweep.cells) == \
        len(SCHEDULES) * len(CHAOS_POLICIES) * len(CHAOS_FLEET_SIZES)
    ids = {cell.cell_id for cell in sweep.cells}
    assert "none@first-fitx4" in ids
    assert "crash-most@balancex8" in ids
    assert all(cell.config == ConfigName.VSWAPPER.value
               for cell in sweep.cells)


def test_cells_are_hermetic_about_their_fault_plan(sweep):
    """The fault-free twin carries no plan at all (never the ambient
    CLI default); injection cells embed theirs in the cache identity."""
    for cell in sweep.cells:
        if cell.params["schedule"] == "none":
            assert cell.faults is None
        else:
            assert cell.faults is not None
            assert cell.faults["enabled"]


def test_schedule_configs_shrink_with_scale():
    cfg = schedule_fault_config("crash-one", scale=SCALE)
    assert cfg.host_fault_horizon == \
        schedule_fault_config("crash-one", scale=1).host_fault_horizon \
        / SCALE
    assert schedule_fault_config("none", scale=SCALE) is None


# ----------------------------------------------------------------------
# cell acceptance at 1/8 scale
# ----------------------------------------------------------------------

def test_crash_cell_replays_bit_identically(sweep, crash_one_cell):
    again = cluster_chaos_cell(_spec(sweep, "crash-one@balancex4"))
    assert again == crash_one_cell
    assert crash_one_cell.counters["host_crashes"] >= 1


def test_survivors_match_the_fault_free_twin(baseline_cell,
                                             crash_one_cell):
    from repro.experiments.cluster_chaos import _chaos_row

    assert not baseline_cell.crashed
    assert baseline_cell.counters["host_crashes"] == 0
    assert baseline_cell.counters["vms_lost"] == 0

    row = _chaos_row(crash_one_cell, baseline_cell)
    assert row["survivors_checked"] > 0
    assert row["survivors_identical"] is True
    assert crash_one_cell.counters["evacuations"] \
        + crash_one_cell.counters["vms_lost"] >= 1


def test_overloaded_crash_surfaces_typed_losses(sweep):
    """crash-most at the admission-capacity fleet: the lone survivor
    node cannot absorb everyone, so VmLost holes must appear -- and
    every VM is still accounted for."""
    result = cluster_chaos_cell(_spec(sweep, "crash-most@first-fitx8"))
    counters = result.counters
    assert not result.crashed
    assert counters["vms_lost"] > 0
    assert counters["vms_placed"] == 8
    holes = [mark for mark in result.phases if mark.name == "vm-lost"]
    assert len(holes) == counters["vms_lost"]
    assert all(mark.payload["reason"] for mark in holes)
    survivors = [mark for mark in result.phases
                 if mark.name == "survivors"][0].payload
    lost_named = {vm for vm, host in survivors["final_hosts"].items()
                  if host == "lost"}
    assert len(lost_named) == counters["vms_lost"]


def test_vms_given_up_after_finishing_count_as_completed(sweep):
    """crash-most at balance x8: some VMs finish before recovery gives
    them up.  They count as completed, never also as lost, so no VM is
    counted twice and only unfinished workloads become figure holes."""
    result = cluster_chaos_cell(_spec(sweep, "crash-most@balancex8"))
    counters = result.counters
    assert counters["vms_completed"] + counters["vms_lost"] \
        <= counters["vms_placed"]
    survivors = [mark for mark in result.phases
                 if mark.name == "survivors"][0].payload
    given_up = {vm for vm, host in survivors["final_hosts"].items()
                if host == "lost"}
    holes = {mark.payload["vm"] for mark in result.phases
             if mark.name == "vm-lost"}
    assert holes < given_up, "no VM was given up after finishing"
    assert len(holes) == counters["vms_lost"]


# ----------------------------------------------------------------------
# assembler
# ----------------------------------------------------------------------

def _fabricated(runtime, fingerprints, *, lost=()):
    phases = [PhaseMark("vm-lost", {
        "schema": 1, "time": 5.0, "vm": vm, "host": "node0",
        "reason": "retries exhausted", "attempts": 5,
    }, 5.0) for vm in lost]
    phases.append(PhaseMark("survivors", {
        "fingerprints": fingerprints,
        "unaffected_hosts": ["node1"],
        "final_hosts": {vm: ("lost" if vm in lost else "node1")
                        for vm in fingerprints},
        "host_states": {}, "evac_latencies": {},
    }, 0.0))
    return RunResult(
        config=ConfigName.VSWAPPER, runtime=runtime, crashed=False,
        counters={"vms_placed": len(fingerprints), "vms_lost": len(lost),
                  "vms_completed": len(fingerprints) - len(lost),
                  "evacuations": 0, "evac_retries": 0,
                  "host_crashes": 1, "host_degrades": 0,
                  "oom_kills": 0},
        phases=phases)


def test_assembler_flags_bit_drift_and_reports_holes():
    sweep = build_cluster_chaos_sweep(
        scale=SCALE, schedules=("none", "crash-one"),
        policies=("first-fit",), fleet_sizes=(4,))
    results = {
        "none@first-fitx4": _fabricated(
            10.0, {"vm0": "aaaa", "vm1": "bbbb"}),
        "crash-one@first-fitx4": _fabricated(
            12.0, {"vm0": "aaaa", "vm1": "DRIFTED"}, lost=("vm0",)),
    }
    figure = assemble_cluster_chaos(sweep, results)
    assert "NO (BIT-DRIFT)" in figure.rendered
    assert "VmLost" in figure.rendered
    assert "Explicit figure holes" in figure.rendered
    row = figure.series["first-fitx4"]["crash-one"]
    assert row["survivors_identical"] is False
    assert row["slowdown"] == pytest.approx(1.2)
    assert row["survival_rate"] == pytest.approx(0.5)


def test_assembler_confirms_identical_survivors():
    sweep = build_cluster_chaos_sweep(
        scale=SCALE, schedules=("none", "crash-one"),
        policies=("first-fit",), fleet_sizes=(4,))
    prints = {"vm0": "aaaa", "vm1": "bbbb"}
    results = {
        "none@first-fitx4": _fabricated(10.0, dict(prints)),
        "crash-one@first-fitx4": _fabricated(10.0, dict(prints)),
    }
    figure = assemble_cluster_chaos(sweep, results)
    assert "yes" in figure.rendered
    assert "BIT-DRIFT" not in figure.rendered
    assert "Explicit figure holes" not in figure.rendered
