"""Runtime invariant auditing (the ``--paranoid`` flag).

The simulator's failure mode of last resort is not a crash but a wrong
figure: an accounting bug that leaks frames or maps a swapped-out page
produces plausible-looking numbers with nothing to flag them.  The
auditor turns that silence into an error.  When the run context's
``paranoid`` field is set (:class:`~repro.context.RunContext`), every
:class:`~repro.cluster.host.Host` installs an
:class:`~repro.audit.auditor.InvariantAuditor`, and every cluster a
:class:`~repro.audit.cluster.ClusterInvariantAuditor` for the
cross-host placement invariants.  The host auditor re-checks the
core invariants at operation boundaries -- the end of every reclaim
batch and every workload phase mark -- and raises
:class:`~repro.errors.InvariantViolation` on the first breach.

The invariant families (see DESIGN.md, "The invariant auditor"):

* **Frame conservation** -- the frame pool never goes negative or over
  total, and its ``used`` count equals the sum of every VM's resident
  pages (EPT mappings + QEMU text + swap-cache pages).
* **EPT / swap / mapper consistency** -- no page is simultaneously
  swapped-out and EPT-mapped; swap-cache and pending-swap entries are
  backed by owned swap slots; ``slot_owner`` and the per-VM slot maps
  agree both ways; every Mapper association's block lies within the
  VM's disk-image geometry, the gpa->assoc and block->assoc indices
  stay a bijection, and residency states match the EPT.
* **Clock monotonicity** -- virtual time never moves backwards between
  audits and the engine never holds an event scheduled in the past.
"""

from repro.audit.auditor import InvariantAuditor
from repro.audit.cluster import ClusterInvariantAuditor
from repro.context import current_context


def paranoid_enabled() -> bool:
    """Whether hosts should install the invariant auditor."""
    return current_context().paranoid


__all__ = [
    "ClusterInvariantAuditor",
    "InvariantAuditor",
    "paranoid_enabled",
]
