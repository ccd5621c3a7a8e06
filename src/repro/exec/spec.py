"""Declarative cell specifications for experiment sweeps.

Every paper figure is a grid of independent simulations: configuration
x workload parameters x memory grant.  A :class:`CellSpec` is the
*complete*, serializable description of one such simulation -- enough
for any process to rebuild the seeded :class:`repro.cluster.Cluster`
and re-run it bit-identically.  A :class:`Sweep` is the ordered set of
cells one experiment declares instead of hand-rolling a loop;
:func:`repro.experiments.registry.run_experiment` builds it, runs it,
and hands the results to the experiment's assembler.

Because a cell is pure data (JSON primitives only), the executor layer
can ship it to a worker process, and the store layer can content-hash
it into a cache key.  Anything that would change the simulation result
must live in the spec; anything that doesn't (rendering, table labels)
must not.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping, Sequence

from repro.config import SWAP_BACKEND_KINDS, FaultConfig
from repro.context import current_context
from repro.errors import ExperimentError

#: Bumped whenever CellSpec/RunResult semantics change such that old
#: persisted results are no longer comparable to fresh runs.  Part of
#: every cache key, so a schema bump silently invalidates the cache.
SPEC_SCHEMA_VERSION = 1


def _check_json_value(value: Any, where: str) -> None:
    """Reject anything that would not survive a JSON round trip."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return
    if isinstance(value, (list, tuple)):
        for item in value:
            _check_json_value(item, where)
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise ExperimentError(
                    f"{where}: non-string key {key!r} would not survive "
                    f"JSON round-tripping")
            _check_json_value(item, where)
        return
    raise ExperimentError(
        f"{where}: value {value!r} of type {type(value).__name__} is "
        f"not JSON-serializable")


def fault_params(faults: FaultConfig | None) -> dict | None:
    """Serialize a fault plan for embedding into a cell spec."""
    return None if faults is None else asdict(faults)


def faults_from_params(params: Mapping | None) -> FaultConfig | None:
    """Rebuild the :class:`FaultConfig` a cell was declared with."""
    if params is None:
        return None
    return FaultConfig(**dict(params))


@dataclass(frozen=True)
class CellSpec:
    """One independent simulation inside a sweep.

    ``experiment_id`` names the *harness* whose cell runner understands
    this spec (``repro.experiments.registry.CELL_RUNNERS``, derived from
    the registry rows' ``harness_id``); two CLI experiments may share one
    harness id (fig5/fig11, fig4/fig14) so their identical cells share
    cache entries.
    """

    experiment_id: str
    cell_id: str
    scale: int
    config: str | None = None
    seed: int = 1
    params: dict = field(default_factory=dict)
    #: Serialized :class:`FaultConfig` (via :func:`fault_params`), or
    #: None for a fault-free cell.  Defaults to the run context's fault
    #: plan (the CLI's ``--faults``).  Part of the identity: a faulted
    #: run never shares a cache entry with a clean one.
    faults: dict | None = field(
        default_factory=lambda: fault_params(current_context().faults))
    #: Swap-backend registry kind (``repro.config.SWAP_BACKEND_KINDS``)
    #: or None for the default disk path.  Defaults to the run
    #: context's ``--swap-backend`` choice; serialized only when set,
    #: so every pre-backend cell keeps its exact cache key.
    backend: str | None = field(
        default_factory=lambda: current_context().swap_backend)

    def __post_init__(self) -> None:
        if not self.experiment_id:
            raise ExperimentError("cell spec needs an experiment id")
        if not self.cell_id:
            raise ExperimentError("cell spec needs a cell id")
        if self.scale < 1:
            raise ExperimentError(f"scale must be positive: {self.scale}")
        if (self.backend is not None
                and self.backend not in SWAP_BACKEND_KINDS):
            raise ExperimentError(
                f"cell {self.cell_id}: unknown swap backend "
                f"{self.backend!r}")
        _check_json_value(self.params, f"cell {self.cell_id} params")
        if self.faults is not None:
            _check_json_value(self.faults, f"cell {self.cell_id} faults")

    def to_dict(self) -> dict:
        """Plain-data form (stable; feeds the content hash)."""
        doc = {
            "schema": SPEC_SCHEMA_VERSION,
            "experiment_id": self.experiment_id,
            "cell_id": self.cell_id,
            "scale": self.scale,
            "config": self.config,
            "seed": self.seed,
            "params": self.params,
            "faults": self.faults,
        }
        if self.backend is not None:
            doc["backend"] = self.backend
        return doc

    @classmethod
    def from_dict(cls, data: Mapping) -> "CellSpec":
        """Inverse of :meth:`to_dict`."""
        if data.get("schema") != SPEC_SCHEMA_VERSION:
            raise ExperimentError(
                f"cell spec schema {data.get('schema')!r} != "
                f"{SPEC_SCHEMA_VERSION}")
        return cls(
            experiment_id=data["experiment_id"],
            cell_id=data["cell_id"],
            scale=data["scale"],
            config=data.get("config"),
            seed=data.get("seed", 1),
            params=dict(data.get("params") or {}),
            faults=(dict(data["faults"])
                    if data.get("faults") is not None else None),
            backend=data.get("backend"),
        )

    def canonical_json(self) -> str:
        """Deterministic serialization: the cache-key preimage."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))


@dataclass(frozen=True)
class Sweep:
    """The ordered cell grid one experiment declares.

    Cell order is the *presentation* order (tables render in it) and
    the deterministic submission order (parallel executors gather
    results back into it).
    """

    experiment_id: str
    cells: tuple[CellSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(self.cells))
        seen: set[str] = set()
        for cell in self.cells:
            if cell.cell_id in seen:
                raise ExperimentError(
                    f"sweep {self.experiment_id}: duplicate cell id "
                    f"{cell.cell_id!r}")
            seen.add(cell.cell_id)

    def __len__(self) -> int:
        return len(self.cells)


def sweep_from_configs(experiment_id: str, config_names: Sequence,
                       *, scale: int, seed: int = 1,
                       params: dict | None = None) -> Sweep:
    """The common one-cell-per-configuration sweep shape."""
    cells = tuple(
        CellSpec(
            experiment_id=experiment_id,
            cell_id=str(getattr(name, "value", name)),
            scale=scale,
            config=str(getattr(name, "value", name)),
            seed=seed,
            params=dict(params or {}),
        )
        for name in config_names)
    return Sweep(experiment_id, cells)
