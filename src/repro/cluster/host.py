"""One node of a cluster: disk, memory, hypervisor, and VMs.

:class:`Host` is the per-host assembly (disk, frame pool, swap area,
swap backend, hypervisor) without an engine clock: a host *shares*
the cluster's :class:`~repro.sim.engine.Engine` and draws its
randomness from a fork of the cluster's root RNG, so cross-host event
ordering is a pure function of the cluster seed.  The one host of a
single-host cluster draws from the root RNG itself.

On top of the assembly, a host enforces its node budgets: the
overcommit ratio caps admission (believed guest memory over physical
frames) and the swap budget caps :class:`HostSwapArea` occupancy,
whose fill fraction is the node-pressure signal the cluster's
migration controller acts on.
"""

from __future__ import annotations

import enum

from repro.audit import InvariantAuditor
from repro.config import (
    DiskConfig,
    HostNodeConfig,
    SwapBackendConfig,
    VmConfig,
)
from repro.context import current_context
from repro.disk.device import DiskDevice
from repro.disk.geometry import DiskLayout
from repro.disk.image import VirtualDiskImage
from repro.disk.latency import HddLatencyModel, LatencyModel, SsdLatencyModel
from repro.disk.swaparea import HostSwapArea
from repro.errors import ConfigError
from repro.guest.kernel import GuestKernel
from repro.host.hypervisor import Hypervisor
from repro.host.qemu import QemuProcess
from repro.host.vm import Vm
from repro.mem.frames import FramePool
from repro.metrics.counters import Counters
from repro.sim.engine import Engine
from repro.sim.ops import WritePattern
from repro.swapback.base import default_swap_backend
from repro.swapback.factory import build_swap_backend
from repro.trace.collector import NULL_TRACE
from repro.units import mib_pages


def build_latency_model(cfg: DiskConfig) -> LatencyModel:
    """Instantiate the latency model the disk config asks for."""
    cfg.validate()
    if cfg.kind == "ssd":
        # One SSD device model: the read/write latencies come from the
        # swap-backend registry so the ablation disk profile and
        # ``--swap-backend ssd`` can never drift apart.
        ssd = SwapBackendConfig.ssd()
        return SsdLatencyModel(
            bandwidth_bytes_per_sec=cfg.bandwidth_bytes_per_sec,
            read_latency=ssd.read_latency,
            write_latency=ssd.write_latency,
        )
    return HddLatencyModel(
        bandwidth_bytes_per_sec=cfg.bandwidth_bytes_per_sec,
        seek_min=cfg.seek_min,
        seek_max=cfg.seek_max,
        rpm=cfg.rpm,
        rotation_fraction=cfg.rotation_fraction,
        per_request_overhead=cfg.per_request_overhead,
    )


class HostState(enum.Enum):
    """Host lifecycle: ``UP -> DEGRADED -> UP`` and ``* -> FAILED``.

    DEGRADED hosts keep running and admitting VMs -- only their disk
    (and therefore swap) is slower.  FAILED is terminal: the host
    admits nothing, holds nothing, and its VMs are the evacuation
    controller's problem.
    """

    UP = "up"
    DEGRADED = "degraded"
    FAILED = "failed"


class Host:
    """One simulated physical host inside a cluster."""

    #: Host-root region size: holds the QEMU executables of all VMs.
    HOST_ROOT_PAGES = mib_pages(256)

    def __init__(self, node: HostNodeConfig, *, host_id: int,
                 engine: Engine, rng, faults=None, trace=NULL_TRACE,
                 audit_label: str | None = None) -> None:
        node.validate()
        self.node = node
        self.name = node.name
        self.host_id = host_id
        #: The host-kernel config (reclaim, costs, swap geometry).
        self.cfg = node.host
        self.engine = engine
        self.rng = rng
        self.faults = faults

        self.layout = DiskLayout()
        self._host_root = self.layout.add_region_pages(
            "host-root", self.HOST_ROOT_PAGES)
        swap_region = self.layout.add_region_pages(
            "host-swap", node.host.swap_size_pages)
        self.swap_area = HostSwapArea(
            swap_region, budget_slots=node.swap_budget_pages)

        self.disk = DiskDevice(
            engine.clock, build_latency_model(node.disk),
            max_write_backlog=node.disk.max_write_backlog_seconds,
            faults=faults)
        self.frames = FramePool(node.host.total_memory_pages)
        backend_cfg = (node.swap_backend if node.swap_backend is not None
                       else default_swap_backend())
        self.swapback = build_swap_backend(
            backend_cfg, clock=engine.clock, disk=self.disk,
            swap_area=self.swap_area, rng=rng, faults=faults)
        self.hypervisor = Hypervisor(
            engine.clock, self.disk, self.frames,
            self.swap_area, node.host, rng=rng.fork("hypervisor"),
            faults=faults, swapback=self.swapback)
        self.hypervisor.host_name = node.name

        self.vms: list[Vm] = []
        self._next_code_base = 0
        #: Believed guest memory placed here (admission accounting).
        self.committed_guest_pages = 0
        #: Lifecycle state (host-fault injection drives transitions).
        self.state = HostState.UP
        #: Whether this host was ever degraded -- experiments use it to
        #: decide which hosts' VMs count as fault-unaffected survivors.
        self.ever_degraded = False

        self.trace = trace
        self.disk.trace = trace
        self.hypervisor.trace = trace
        self.swapback.trace = trace

        #: Runtime invariant auditor; installed only under --paranoid
        #: (the run context's flag), so ordinary runs pay nothing.
        self.auditor: InvariantAuditor | None = (
            InvariantAuditor(self, label=audit_label)
            if current_context().paranoid else None)
        self.hypervisor.auditor = self.auditor

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time (the shared cluster clock)."""
        return self.engine.now

    # ------------------------------------------------------------------
    # budgets
    # ------------------------------------------------------------------

    @property
    def admission_limit_pages(self) -> int | None:
        """Believed guest memory this node may host (None = unlimited)."""
        if self.node.overcommit_ratio is None:
            return None
        return int(self.node.overcommit_ratio
                   * self.node.host.total_memory_pages)

    def can_admit(self, vm_config: VmConfig) -> bool:
        """Whether placement may put ``vm_config`` on this node."""
        if self.state is HostState.FAILED:
            return False
        code_pages = self.cfg.hypervisor_code_pages
        if self._next_code_base + code_pages > self._host_root.size_pages:
            return False
        limit = self.admission_limit_pages
        return (limit is None
                or self.committed_guest_pages
                + vm_config.guest.memory_pages <= limit)

    @property
    def committed_fraction(self) -> float:
        """Fill fraction of the admission budget (placement signal);
        falls back to physical memory when admission is unlimited."""
        denominator = (self.admission_limit_pages
                       if self.admission_limit_pages is not None
                       else self.node.host.total_memory_pages)
        return (self.committed_guest_pages / denominator
                if denominator else 1.0)

    @property
    def swap_pressure(self) -> float:
        """Occupied fraction of the node's swap budget, or of the
        backend's own capacity when that is tighter (a nearly-full
        compressed tier is pressure even with slots to spare)."""
        return max(self.swap_area.budget_pressure, self.swapback.pressure)

    @property
    def over_pressure(self) -> bool:
        """Whether the node crossed its configured pressure threshold."""
        return self.swap_pressure >= self.node.pressure_threshold

    # ------------------------------------------------------------------
    # host lifecycle
    # ------------------------------------------------------------------

    @property
    def alive(self) -> bool:
        """Whether the host still runs (UP or DEGRADED)."""
        return self.state is not HostState.FAILED

    def fail(self) -> None:
        """Hard crash: terminal, from any state.

        Only flips the state (and clears any degradation); stripping
        the resident VMs' host-side resources is the cluster's job --
        see ``Cluster._fail_host``.
        """
        self.state = HostState.FAILED
        self.disk.latency_scale = 1.0

    def degrade(self, factor: float) -> None:
        """Enter a degradation window: disk service times scale up."""
        if self.state is not HostState.UP:
            return
        self.state = HostState.DEGRADED
        self.ever_degraded = True
        self.disk.latency_scale = factor

    def recover(self) -> None:
        """Leave the degradation window (no-op unless DEGRADED)."""
        if self.state is not HostState.DEGRADED:
            return
        self.state = HostState.UP
        self.disk.latency_scale = 1.0

    # ------------------------------------------------------------------
    # VM lifecycle
    # ------------------------------------------------------------------

    def create_vm(self, vm_config: VmConfig, *, vm_id: int) -> Vm:
        """Instantiate a VM: image region, QEMU process, guest kernel."""
        region = self.layout.add_region_pages(
            f"image-{vm_config.name}", vm_config.image_size_pages)
        image = VirtualDiskImage(region)

        code_pages = self.cfg.hypervisor_code_pages
        if (self._next_code_base + code_pages
                > self._host_root.size_pages):
            raise ConfigError("host-root region exhausted; too many VMs")
        qemu = QemuProcess(self._host_root, self._next_code_base, code_pages)
        self._next_code_base += code_pages

        vm = Vm(vm_config, vm_id, image, qemu,
                named_fraction=self.cfg.named_fraction,
                reclaim_noise=self.cfg.reclaim_noise,
                rng=self.rng.fork(f"reclaim-{vm_config.name}"))
        vm.guest = GuestKernel(
            vm_config.guest, vm, self.hypervisor,
            image.size_blocks, self.rng.fork(f"guest-{vm_config.name}"))
        self.adopt_vm(vm)
        return vm

    def adopt_vm(self, vm: Vm) -> None:
        """Attach an existing VM (creation and migration arrivals)."""
        vm.host = self
        self.hypervisor.register_vm(vm)
        self.vms.append(vm)
        self.committed_guest_pages += vm.cfg.guest.memory_pages
        vm.scanner.trace = self.trace
        vm.scanner.trace_vm = vm.name
        if vm.mapper is not None:
            vm.mapper.trace = self.trace
            vm.mapper.trace_vm = vm.name

    def release_vm(self, vm: Vm) -> None:
        """Detach a VM that migrated away (state already torn down)."""
        self.vms.remove(vm)
        self.hypervisor.vms.remove(vm)
        self.committed_guest_pages -= vm.cfg.guest.memory_pages

    def claim_code_base(self, code_pages: int) -> int:
        """Reserve host-root space for an arriving QEMU process."""
        if self._next_code_base + code_pages > self._host_root.size_pages:
            raise ConfigError("host-root region exhausted; too many VMs")
        base = self._next_code_base
        self._next_code_base += code_pages
        return base

    def boot_guest(self, vm: Vm, *, fraction: float = 1.0) -> None:
        """Model the guest's uptime history before the experiment.

        A real guest has touched essentially all of its believed memory
        by the time a benchmark runs (boot, daemons, earlier jobs), so
        under uncooperative swapping the host swap area holds a large
        population of dead-but-swapped pages.  Those stragglers are the
        persistent state that fragments swap-slot runs over time --
        without them, decayed swap sequentiality cannot accumulate.

        The phase is untimed: costs, counters, and disk state reset.
        """
        guest = vm.guest
        keep_free = guest.cfg.derived_free_target
        touch_pages = int(max(0, len(guest.free_list) - keep_free) * fraction)
        if touch_pages > 0:
            guest.anon.commit("boot-history", touch_pages)
            # Written, never read back: no guest costs (they are reset
            # below anyway) and no referenced bits.
            guest._demand_zero("boot-history", range(touch_pages), True,
                               WritePattern.FULL_SEQUENTIAL, (),
                               note_access=False)
            released, slots = guest.anon.release_region("boot-history")
            for gpa in released:
                guest.scanner.note_evicted(gpa)
                guest.free_list.append(gpa)
            for slot in slots:
                guest.gswap.free(slot)
        vm.costs.reset()
        vm.counters = Counters()
        self.disk.quiesce()
        # Boot history is untimed setup: drop its events too, so the
        # analyzer's counts line up with the reset counters bit-exactly.
        self.trace.reset()

    def apply_static_balloon(self, vm: Vm, pages: int) -> None:
        """Pre-inflate the balloon before the workload starts.

        Controlled experiments (Section 5.1) configure the balloon once
        and leave it; inflation on a freshly booted guest is pure
        free-list allocation, so no cost accrues.
        """
        guest = vm.guest
        guest.set_balloon_target(pages)
        guest.apply_balloon(pages)
        vm.costs.reset()

    def aggregate_counters(self) -> dict[str, int]:
        """Host-wide sum of every VM's counters."""
        totals: dict[str, int] = {}
        for vm in self.vms:
            for name, value in vm.counters.snapshot().items():
                totals[name] = totals.get(name, 0) + value
        return totals
