"""Default-path identity and cell-spec cache-key stability.

The backend layer's contract with the rest of the repo: as long as no
backend is chosen, nothing anywhere -- simulation results, event
streams, cache keys -- may change.  These tests pin both halves:
an explicit ``disk`` backend is bit-identical to no backend at all,
and a backend-less spec serializes to the exact pre-backend form.
"""

import json

import pytest

from repro.context import RunContext, run_context
from repro.errors import ExperimentError
from repro.exec.executor import execute_cell
from repro.exec.spec import CellSpec
from repro.swapback.base import default_swap_backend

SCALE = 8


def _cell(backend):
    return CellSpec(
        experiment_id="swaptier",
        cell_id=f"{backend or 'none'}/vswapper",
        scale=SCALE,
        config="vswapper",
        params={"swap_backend": backend or "disk"},
        backend=backend,
    )


def test_explicit_disk_backend_is_bit_identical_to_none():
    none_result = execute_cell(_cell(None))
    disk_result = execute_cell(_cell("disk"))
    assert disk_result.counters == none_result.counters
    assert disk_result.runtime == none_result.runtime
    assert (disk_result.iteration_durations()
            == none_result.iteration_durations())


def test_fast_backend_changes_runtime_but_not_traffic():
    none_result = execute_cell(_cell(None))
    nvme_result = execute_cell(_cell("nvme"))
    # Swap traffic is decided above the backend; only its cost moves.
    for name in ("swap_sectors_written", "stale_reads",
                 "silent_swap_writes"):
        assert nvme_result.counters.get(name) \
            == none_result.counters.get(name)
    assert nvme_result.runtime < none_result.runtime


def test_backendless_spec_serializes_to_legacy_form():
    spec = CellSpec(experiment_id="fig09", cell_id="baseline",
                    scale=8, config="baseline", backend=None)
    doc = spec.to_dict()
    assert "backend" not in doc
    assert sorted(doc) == ["cell_id", "config", "experiment_id",
                           "faults", "params", "scale", "schema",
                           "seed"]
    # Legacy dicts (no backend key) must round-trip to backend=None.
    assert CellSpec.from_dict(doc).backend is None


def test_backend_field_round_trips_and_changes_identity():
    with_b = CellSpec(experiment_id="fig09", cell_id="c", scale=8,
                      backend="nvme")
    without = CellSpec(experiment_id="fig09", cell_id="c", scale=8,
                       backend=None)
    assert with_b.canonical_json() != without.canonical_json()
    assert CellSpec.from_dict(
        json.loads(with_b.canonical_json())).backend == "nvme"


def test_unknown_backend_rejected_at_spec_build():
    with pytest.raises(ExperimentError, match="unknown swap backend"):
        CellSpec(experiment_id="fig09", cell_id="c", scale=8,
                 backend="floppy")


def test_specs_capture_the_ambient_backend():
    assert default_swap_backend() is None
    with run_context(RunContext(swap_backend="zram")):
        spec = CellSpec(experiment_id="fig09", cell_id="c", scale=8)
        assert spec.backend == "zram"
        explicit = CellSpec(experiment_id="fig09", cell_id="c", scale=8,
                            backend=None)
        assert explicit.backend is None
    assert CellSpec(experiment_id="fig09", cell_id="c",
                    scale=8).backend is None
