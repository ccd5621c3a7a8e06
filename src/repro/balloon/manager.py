"""The balloon manager control loop.

Runs as a periodic engine task: poll guest and host statistics, let the
policy compute new balloon targets, and hand them to the guests.  Guests
apply targets on their own time (their driver interleaves balloon work
with the workload), so both the polling latency and the guests' reclaim
speed bound how fast memory actually moves -- the paper's Section 2.3
responsiveness problem, and the reason Figure 4/14's balloon
configurations lean on uncooperative swapping under phased load.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.balloon.policy import BalloonPolicy, GuestObservation
from repro.cluster.host import Host
from repro.errors import GuestOomKill
from repro.units import mib_pages


@dataclass(frozen=True)
class ManagerConfig:
    """Tunables of the manager loop."""

    poll_interval: float = 5.0
    #: Pages one eager deflation may move per tick (inflation is paced
    #: by the guest's driver instead).
    max_step_pages: int = mib_pages(256)
    policy: BalloonPolicy = field(default_factory=BalloonPolicy)


class BalloonManager:
    """MOM-like daemon managing every VM on one host."""

    def __init__(self, host: Host,
                 config: ManagerConfig | None = None) -> None:
        self.host = host
        self.cfg = config or ManagerConfig()
        self.ticks = 0
        self.oom_events = 0
        #: (time, vm_id, target) decisions, for experiment forensics.
        self.history: list[tuple[float, int, int]] = []
        self._last_host_evictions = 0
        self._last_guest_swap: dict[int, int] = {}
        host.engine.add_periodic(self.cfg.poll_interval, self.tick)

    def _host_evictions(self) -> int:
        return sum(vm.counters.host_evictions for vm in self.host.vms)

    def _observe(self) -> dict[int, GuestObservation]:
        observations: dict[int, GuestObservation] = {}
        for vm in self.host.vms:
            guest = vm.guest
            if guest is None or guest.oom_killed:
                continue
            swap_now = (vm.counters.guest_swap_sectors_written
                        + vm.counters.guest_swap_faults)
            swap_delta = swap_now - self._last_guest_swap.get(vm.vm_id, 0)
            self._last_guest_swap[vm.vm_id] = swap_now
            observations[vm.vm_id] = GuestObservation(
                guest.memory_stats(), swap_delta)
        return observations

    def tick(self) -> None:
        """One manager cycle: poll, decide, set targets."""
        self.ticks += 1
        observations = self._observe()
        if not observations:
            return
        evictions = self._host_evictions()
        evictions_delta = evictions - self._last_host_evictions
        self._last_host_evictions = evictions
        decision = self.cfg.policy.decide(observations, evictions_delta)

        now = self.host.now
        for vm in self.host.vms:
            target = decision.targets.get(vm.vm_id)
            if target is None:
                continue
            guest = vm.guest
            guest.set_balloon_target(target)
            self.history.append((now, vm.vm_id, target))
            # Deflation is applied eagerly: returning memory costs the
            # guest nothing, and an idle guest has no workload steps
            # that would otherwise pick the new target up.
            if target < guest.balloon_size:
                try:
                    guest.apply_balloon(self.cfg.max_step_pages)
                except GuestOomKill:  # pragma: no cover - deflate is safe
                    self.oom_events += 1
