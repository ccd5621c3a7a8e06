"""The standing chaos suite: graceful degradation, never stale data."""

from repro.config import FaultConfig
from repro.experiments.chaos import FAULT_COUNTERS
from repro.experiments.registry import run_experiment
from repro.experiments.runner import ConfigName

#: Small but real: the Fig. 3 workload at 1/8 scale.
SCALE = 8


def test_chaos_sweep_covers_the_five_standard_configs():
    result = run_experiment("chaos", scale=SCALE, seed=1)
    assert set(result.series) == {c.value for c in ConfigName}


def test_every_cell_resolves_to_a_terminal_status():
    """Acceptance: zero unhandled exceptions -- every injected fault is
    retried, reported as degraded/crashed, or typed at the boundary."""
    result = run_experiment("chaos", scale=SCALE, seed=1)
    for config, cell in result.series.items():
        assert cell["status"] in ("ok", "degraded", "crashed"), config
        if cell["status"] == "crashed":
            # Crashes carry a typed, named reason...
            assert cell["crash_reason"], config
            # ...and none of them is a data-consistency violation: the
            # mapper's fallback keeps stale content unreachable.
            assert not cell["crash_reason"].startswith(
                "ConsistencyError"), cell["crash_reason"]
        else:
            assert cell["runtime"] is not None and cell["runtime"] > 0


def test_chaos_run_is_deterministic():
    a = run_experiment("chaos", scale=SCALE, seed=3)
    b = run_experiment("chaos", scale=SCALE, seed=3)
    assert a.series == b.series


def test_chaos_seeds_change_the_schedule():
    a = run_experiment("chaos", scale=SCALE, seed=1)
    b = run_experiment("chaos", scale=SCALE, seed=99)
    faults_a = [cell["faults"] for cell in a.series.values()]
    faults_b = [cell["faults"] for cell in b.series.values()]
    assert faults_a != faults_b


def test_faults_actually_fire_somewhere():
    result = run_experiment("chaos", scale=SCALE, seed=1)
    total = sum(sum(cell["faults"].values())
                for cell in result.series.values())
    assert total > 0


def test_fault_free_plan_matches_clean_run_statuses():
    quiet = FaultConfig(enabled=True)  # all rates zero, just watchdogs
    result = run_experiment("chaos", scale=SCALE, seed=1, fault_config=quiet)
    for config, cell in result.series.items():
        assert cell["status"] == "ok", (config, cell)
        assert all(v == 0 for v in cell["faults"].values())


def test_rendered_table_names_every_config_and_status():
    result = run_experiment("chaos", scale=SCALE, seed=1)
    for config, cell in result.series.items():
        assert config in result.rendered
        assert cell["status"] in result.rendered


def test_fault_counter_vocabulary_is_stable():
    assert "disk_retries" in FAULT_COUNTERS
    assert "mapper_breaker_trips" in FAULT_COUNTERS


def test_figure_harness_tolerates_crashed_cells():
    """A fault-induced crash mid-iteration must become a marker row in
    the figure table, not an IndexError or unbalanced-marks error."""
    from repro.context import RunContext, run_context

    always_corrupt = FaultConfig(
        enabled=True, swap_slot_corruption_rate=1.0)
    with run_context(RunContext(faults=always_corrupt)):
        result = run_experiment("fig9", scale=SCALE, iterations=2)
    baseline = result.series[ConfigName.BASELINE.value]
    assert baseline["status"] == "crashed"
    assert len(baseline["runtime"]) < 2
    assert "crashed" in result.rendered
