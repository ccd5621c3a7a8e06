"""The sweep execution substrate: specs, executors, result store.

Experiments *declare* their parameter grid as a
:class:`~repro.exec.spec.Sweep` of frozen
:class:`~repro.exec.spec.CellSpec`\\ s; :func:`~repro.exec.executor.run_sweep`
executes it serially or on the supervised worker pool, consults the
content-addressed :class:`~repro.exec.store.ResultStore` for resumable
caching, and hands the results back for figure assembly.  See
DESIGN.md, "The exec layer".
"""

from repro.exec.executor import (
    SerialExecutor,
    SweepOutcome,
    execute_cell,
    finish_figure,
    make_executor,
    run_sweep,
)
from repro.exec.supervisor import (
    CellFailure,
    CellSupervisor,
    FailureKind,
)
from repro.exec.spec import (
    SPEC_SCHEMA_VERSION,
    CellSpec,
    Sweep,
    fault_params,
    faults_from_params,
    sweep_from_configs,
)
from repro.exec.store import (
    QuarantineReason,
    ResultStore,
    STORE_CRASH_EXIT,
    StoreCompactReport,
    StoreGcReport,
    StoreVerifyReport,
    cell_key,
    figure_key,
)

__all__ = [
    "CellFailure",
    "CellSpec",
    "CellSupervisor",
    "FailureKind",
    "QuarantineReason",
    "ResultStore",
    "SPEC_SCHEMA_VERSION",
    "STORE_CRASH_EXIT",
    "SerialExecutor",
    "StoreCompactReport",
    "StoreGcReport",
    "StoreVerifyReport",
    "Sweep",
    "SweepOutcome",
    "cell_key",
    "figure_key",
    "execute_cell",
    "fault_params",
    "faults_from_params",
    "finish_figure",
    "make_executor",
    "run_sweep",
    "sweep_from_configs",
]
