"""Deterministic fault injection (the chaos layer).

A :class:`~repro.faults.plan.FaultPlan` is built from a seeded
:class:`~repro.config.FaultConfig` and consulted by three layers:

* the disk device (transient errors, latency spikes, torn writes),
* the hypervisor's swap path (failed swap-in reads, slot corruption),
* the Swap Mapper (forced consistency invalidations, whose repetition
  trips a per-VM circuit breaker into the paper's Section 4.1 fallback
  to ordinary uncooperative swapping),
* the supervised executor (:func:`should_kill_worker` hard-kills
  worker processes *outside* the simulation, exercising the
  CellSupervisor's crash recovery without perturbing results).

Every decision flows through :class:`repro.sim.rng.DeterministicRng`
substreams, so a (seed, FaultConfig) pair fully determines the fault
schedule and chaos runs are bit-for-bit repeatable.
"""

from repro.faults.breaker import CircuitBreaker
from repro.faults.plan import FaultPlan, should_kill_worker

__all__ = [
    "CircuitBreaker",
    "FaultPlan",
    "should_kill_worker",
]
