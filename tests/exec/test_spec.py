"""CellSpec/Sweep: validation, canonical JSON, fault capture."""

import pytest

from repro.config import FaultConfig
from repro.context import RunContext, run_context
from repro.errors import ExperimentError
from repro.exec.spec import (
    CellSpec,
    Sweep,
    fault_params,
    faults_from_params,
    sweep_from_configs,
)
from repro.experiments.runner import ConfigName


def _spec(**overrides) -> CellSpec:
    defaults = dict(experiment_id="exp", cell_id="cell", scale=4)
    defaults.update(overrides)
    return CellSpec(**defaults)


def test_round_trip_preserves_equality():
    spec = _spec(config="baseline", seed=7,
                 params={"actual_mib": 512, "nested": [1, 2.5, None]},
                 faults=fault_params(FaultConfig.chaos()))
    assert CellSpec.from_dict(spec.to_dict()) == spec


def test_canonical_json_is_key_order_independent():
    a = _spec(params={"x": 1, "y": 2})
    b = _spec(params={"y": 2, "x": 1})
    assert a.canonical_json() == b.canonical_json()


def test_missing_ids_rejected():
    with pytest.raises(ExperimentError):
        _spec(experiment_id="")
    with pytest.raises(ExperimentError):
        _spec(cell_id="")


def test_nonpositive_scale_rejected():
    with pytest.raises(ExperimentError):
        _spec(scale=0)


def test_non_json_params_rejected():
    with pytest.raises(ExperimentError):
        _spec(params={"machine": object()})


def test_non_string_param_keys_rejected():
    with pytest.raises(ExperimentError):
        _spec(params={512: "int keys do not survive JSON"})


def test_schema_mismatch_rejected():
    data = _spec().to_dict()
    data["schema"] = 999
    with pytest.raises(ExperimentError):
        CellSpec.from_dict(data)


def test_sweep_rejects_duplicate_cell_ids():
    with pytest.raises(ExperimentError):
        Sweep("exp", (_spec(), _spec()))


def test_sweep_len_and_order():
    cells = tuple(_spec(cell_id=f"c{i}") for i in range(3))
    sweep = Sweep("exp", cells)
    assert len(sweep) == 3
    assert [c.cell_id for c in sweep.cells] == ["c0", "c1", "c2"]


def test_sweep_from_configs_one_cell_per_config():
    sweep = sweep_from_configs(
        "exp", (ConfigName.BASELINE, ConfigName.VSWAPPER), scale=8,
        params={"iterations": 2})
    assert len(sweep) == 2
    assert [c.cell_id for c in sweep.cells] == ["baseline", "vswapper"]
    assert all(c.config == c.cell_id for c in sweep.cells)
    assert all(c.params == {"iterations": 2} for c in sweep.cells)


def test_fault_params_round_trip():
    chaos = FaultConfig.chaos()
    assert faults_from_params(fault_params(chaos)) == chaos
    assert fault_params(None) is None
    assert faults_from_params(None) is None


def test_fault_params_captures_ambient_default():
    """A cell built under a context captures the context's fault plan;
    an explicit ``faults=None`` still wins."""
    chaos = FaultConfig.chaos()
    with run_context(RunContext(faults=chaos)):
        assert faults_from_params(_spec().faults) == chaos
        assert _spec(faults=None).faults is None
    assert _spec().faults is None


def test_faults_change_the_cell_identity():
    clean = _spec()
    faulted = _spec(faults=fault_params(FaultConfig.chaos()))
    assert clean.canonical_json() != faulted.canonical_json()
