"""Configuration dataclasses for machines, guests, and VSwapper.

Every tunable of the simulation lives here, with defaults calibrated so
that plentiful-memory runtimes land near the paper's testbed numbers
(Dell R420, 7200 RPM disk).  Experiments construct these explicitly, so
a figure's parameters are always visible in its harness.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.errors import ConfigError
from repro.units import USEC, mib_pages


class GuestOsKind(enum.Enum):
    """Guest operating-system profile (Section 5.4 runs Windows too)."""

    LINUX = "linux"
    WINDOWS = "windows"


class HypervisorKind(enum.Enum):
    """Host profile: KVM-like (default) or the VMware-like profile used
    to reproduce Table 2."""

    KVM = "kvm"
    VMWARE = "vmware"


@dataclass(frozen=True)
class DiskConfig:
    """Physical disk characteristics (HDD by default, SSD for ablation).

    SSD latency parameters live in the swap-backend registry
    (:meth:`SwapBackendConfig.ssd`): ``kind="ssd"`` disks share the
    registry's device model rather than carrying a private copy.
    """

    kind: str = "hdd"
    bandwidth_bytes_per_sec: float = 120e6
    seek_min: float = 0.5e-3
    seek_max: float = 9.5e-3
    rpm: float = 7200.0
    #: Effective average rotational latency as a fraction of one
    #: revolution (queued I/O + elevator amortize the naive half turn).
    rotation_fraction: float = 0.20
    per_request_overhead: float = 50e-6
    #: Async writers stall until the device backlog drains below this
    #: (write-back / dirty throttling).
    max_write_backlog_seconds: float = 0.25

    def validate(self) -> None:
        if self.kind not in DISK_KINDS:
            raise ConfigError(
                f"unknown disk kind: {self.kind!r}; expected one of "
                f"{DISK_KINDS}")
        if self.bandwidth_bytes_per_sec <= 0:
            raise ConfigError("disk bandwidth must be positive")


#: Disk kinds the device layer understands.  ``hdd`` uses the seek +
#: rotation model; ``ssd`` reuses the swap-backend registry's SSD
#: latency parameters (one model, shared with ``--swap-backend ssd``).
DISK_KINDS = ("hdd", "ssd")


@dataclass(frozen=True)
class SwapBackendConfig:
    """One swap destination: where host-swapped pages live and what a
    store/load costs (ROADMAP item 3: which of the paper's root causes
    survive when swap is 100x faster than a 7200 RPM disk).

    A flat parameter record shared by every backend kind; each factory
    below fills in the fields its device model reads and leaves the
    rest at defaults.  ``kind="disk"`` (the default when no backend is
    configured at all) routes swap through the host's own
    :class:`DiskConfig` device, bit-identical to the pre-backend code.

    Unit conventions: latencies and RTT are seconds, bandwidth is
    bytes/second, and the compressed tier's ``capacity_pages`` counts
    *uncompressed page equivalents* -- the tier holds
    ``capacity_pages * PAGE_SIZE`` compressed bytes, so the number of
    pages that actually fit depends on the drawn compression ratios.
    """

    kind: str = "disk"
    # --- fixed-latency device models (ssd, nvme) ----------------------
    #: Per-request read latency (device service floor, no seek).
    read_latency: float = 80e-6
    #: Per-request write latency (flash program / remote commit).
    write_latency: float = 250e-6
    bandwidth_bytes_per_sec: float = 450e6
    #: Requests the device services concurrently (NVMe queue depth;
    #: 1 = strictly serial like a SATA SSD).
    queue_depth: int = 1
    # --- capacity (tiering) -------------------------------------------
    #: Slots this backend can hold, in uncompressed page equivalents
    #: (None = unbounded).  For the compressed tier this is the
    #: compressed-byte budget divided by PAGE_SIZE.
    capacity_pages: int | None = None
    # --- compressed-RAM tier (zram) -----------------------------------
    #: Mean of the per-page compressed-size ratio draw...
    compression_ratio_mean: float = 0.45
    #: ...drawn uniformly within +/- this jitter, clipped to (0, 1].
    compression_ratio_jitter: float = 0.20
    #: CPU seconds to compress one page on store...
    compress_page_cost: float = 2.5 * USEC
    #: ...and to decompress it on load.
    decompress_page_cost: float = 1.0 * USEC
    # --- remote / disaggregated-memory tier ---------------------------
    #: Network round-trip added to every remote request.
    rtt: float = 5e-6
    #: Uniform jitter as a fraction of the RTT, drawn per request from
    #: the cell's RNG fork (0 = deterministic wire).
    jitter_fraction: float = 0.0
    # --- tiered composite ---------------------------------------------
    fast: "SwapBackendConfig | None" = None
    slow: "SwapBackendConfig | None" = None
    #: Promote slow-tier pages to the fast tier when swapped back in.
    promote_on_load: bool = True

    def validate(self) -> None:
        if self.kind not in SWAP_BACKEND_KINDS:
            raise ConfigError(
                f"unknown swap backend kind: {self.kind!r}; expected one "
                f"of {tuple(SWAP_BACKEND_KINDS)}")
        if self.read_latency < 0 or self.write_latency < 0:
            raise ConfigError("swap backend latencies must be non-negative")
        if self.bandwidth_bytes_per_sec <= 0:
            raise ConfigError("swap backend bandwidth must be positive")
        if self.queue_depth < 1:
            raise ConfigError("swap backend queue_depth must be >= 1")
        if self.capacity_pages is not None and self.capacity_pages < 0:
            raise ConfigError("capacity_pages must be non-negative")
        if not 0.0 < self.compression_ratio_mean <= 1.0:
            raise ConfigError("compression_ratio_mean must be in (0, 1]")
        if self.compression_ratio_jitter < 0:
            raise ConfigError("compression_ratio_jitter must be >= 0")
        if self.compress_page_cost < 0 or self.decompress_page_cost < 0:
            raise ConfigError("compression CPU costs must be non-negative")
        if self.rtt < 0:
            raise ConfigError("rtt must be non-negative")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ConfigError("jitter_fraction must be within [0, 1]")
        if self.kind == "tiered":
            if self.fast is None or self.slow is None:
                raise ConfigError(
                    "tiered backend needs both fast and slow tiers")
            if "tiered" in (self.fast.kind, self.slow.kind):
                raise ConfigError("tiers cannot nest another tiered backend")
            if self.fast.capacity_pages is None:
                raise ConfigError(
                    "tiered fast tier needs a finite capacity_pages")
            self.fast.validate()
            self.slow.validate()
        elif self.fast is not None or self.slow is not None:
            raise ConfigError(
                f"{self.kind!r} backend does not take fast/slow tiers")

    @staticmethod
    def disk() -> "SwapBackendConfig":
        """Swap through the host disk (the paper's setup; the default)."""
        return SwapBackendConfig(kind="disk")

    @staticmethod
    def ssd() -> "SwapBackendConfig":
        """A dedicated SATA-class SSD swap device (serial queue).

        The latency numbers here are *the* SSD parameters: the
        ``kind="ssd"`` disk profile of the ablation experiment builds
        its :class:`~repro.disk.latency.SsdLatencyModel` from them too.
        """
        return SwapBackendConfig(
            kind="ssd", read_latency=80e-6, write_latency=250e-6,
            bandwidth_bytes_per_sec=450e6, queue_depth=1)

    @staticmethod
    def nvme() -> "SwapBackendConfig":
        """An NVMe swap device: lower fixed latency, deep queue."""
        return SwapBackendConfig(
            kind="nvme", read_latency=10e-6, write_latency=20e-6,
            bandwidth_bytes_per_sec=3e9, queue_depth=32)

    @staticmethod
    def zram(capacity_pages: int | None = None) -> "SwapBackendConfig":
        """A zswap/zram-style compressed-RAM tier."""
        return SwapBackendConfig(kind="zram", capacity_pages=capacity_pages)

    @staticmethod
    def remote() -> "SwapBackendConfig":
        """Disaggregated far memory over an RDMA-class fabric."""
        return SwapBackendConfig(
            kind="remote", rtt=5e-6, jitter_fraction=0.1,
            bandwidth_bytes_per_sec=12.5e9, queue_depth=16)

    @staticmethod
    def tiered(fast: "SwapBackendConfig | None" = None,
               slow: "SwapBackendConfig | None" = None,
               capacity_pages: int = mib_pages(64),
               ) -> "SwapBackendConfig":
        """Fast tier backed by a slow spill tier (zram over SSD by
        default, the common zswap deployment shape)."""
        if fast is None:
            fast = replace(SwapBackendConfig.zram(),
                           capacity_pages=capacity_pages)
        if slow is None:
            slow = SwapBackendConfig.ssd()
        return SwapBackendConfig(kind="tiered", fast=fast, slow=slow)


#: Swap-backend kind -> zero-argument config factory.  The CLI's
#: ``--swap-backend`` choices and the ``swaptier`` experiment's sweep
#: both come from this table, so adding a backend is one entry here
#: plus its device model in ``repro.swapback``.
SWAP_BACKEND_KINDS: dict = {
    "disk": SwapBackendConfig.disk,
    "ssd": SwapBackendConfig.ssd,
    "nvme": SwapBackendConfig.nvme,
    "zram": SwapBackendConfig.zram,
    "remote": SwapBackendConfig.remote,
    "tiered": SwapBackendConfig.tiered,
}


def swap_backend_config(kind: str) -> SwapBackendConfig:
    """Default :class:`SwapBackendConfig` for ``kind``.

    Raises :class:`ConfigError` for unknown kinds (the typed error the
    CLI surfaces for a bad ``--swap-backend``).
    """
    try:
        factory = SWAP_BACKEND_KINDS[kind]
    except KeyError:
        known = ", ".join(sorted(SWAP_BACKEND_KINDS))
        raise ConfigError(
            f"unknown swap backend kind: {kind!r}; known: {known}"
        ) from None
    config = factory()
    config.validate()
    return config


@dataclass(frozen=True)
class HostConfig:
    """Hypervisor/host-kernel parameters."""

    #: Physical frames available to guests (host reserve already taken).
    total_memory_pages: int = mib_pages(16 * 1024)
    #: Host swap partition size.
    swap_size_pages: int = mib_pages(16 * 1024)
    #: Linux ``page-cluster``-style swap readahead (pages per fault).
    swap_cluster_pages: int = 8
    #: Readahead window when the Mapper refaults from the disk image.
    image_readahead_pages: int = 32
    #: Victims reclaimed per pressure episode (SWAP_CLUSTER_MAX-like).
    reclaim_batch_pages: int = 32
    #: Swap-out writes are buffered (the page sits in the swap cache)
    #: and flushed to disk in batches of this many pages, mirroring how
    #: write-back coalesces swap traffic into large requests.
    swap_writeback_batch_pages: int = 256
    #: Fraction of each reclaim batch drawn from the named-page list.
    named_fraction: float = 0.75
    #: CPU cost of servicing one EPT violation (exit + map).
    ept_fault_cost: float = 4 * USEC
    #: CPU cost of a COW break exit on a Mapper-tracked page (5.3).
    cow_exit_cost: float = 6 * USEC
    #: Extra per-page cost of the Mapper's mmap-based virtio read path
    #: versus plain preadv (5.3 attributes its ~3.5% overhead to this).
    mmap_page_cost: float = 2.5 * USEC
    #: Resident footprint of the hypervisor (QEMU) executable per VM.
    hypervisor_code_pages: int = 192
    #: Code pages touched when QEMU services one virtual I/O request.
    code_pages_per_io: int = 16
    #: Code pages touched per guest-fault episode (timer ticks, exits).
    code_pages_per_fault: int = 2
    #: Readahead used when faulting hypervisor code pages back in.
    code_readahead_pages: int = 8
    #: Probability a reclaimed QEMU code page is still in the host page
    #: cache when refaulted (the binary is shared with other processes),
    #: making the refault minor instead of a disk read.
    code_cache_hit_rate: float = 0.97
    #: CPU cost of a minor fault (page present in host cache).
    minor_fault_cost: float = 3 * USEC
    #: Referenced-bit sampling noise of the reclaim clock: probability
    #: an eviction candidate gets an extra rotation.  This models the
    #: aggregate disorder of real LRU approximation (active/inactive
    #: promotions, timing) and is the seed of *decayed swap
    #: sequentiality* -- with zero noise the simulation stays in
    #: deterministic lockstep and slot order never degrades.
    reclaim_noise: float = 0.06
    #: KVM asynchronous page faults: guests with spare threads overlap
    #: host swap-in stalls (Section 5.1, pbzip2).
    async_page_faults: bool = True
    #: Which hypervisor profile this host models.
    kind: HypervisorKind = HypervisorKind.KVM
    #: Ablation: model a hardware dirty bit for guest pages (the
    #: paper's Haswell discussion) letting the host skip rewriting
    #: swap-clean pages.
    hardware_dirty_bit: bool = False

    def validate(self) -> None:
        if self.total_memory_pages <= 0:
            raise ConfigError("host memory must be positive")
        if self.swap_cluster_pages <= 0:
            raise ConfigError("swap cluster must be positive")
        if not 0.0 <= self.named_fraction <= 1.0:
            raise ConfigError("named_fraction must be within [0, 1]")
        if self.reclaim_batch_pages <= 0:
            raise ConfigError("reclaim batch must be positive")
        if not 0.0 <= self.code_cache_hit_rate <= 1.0:
            raise ConfigError("code_cache_hit_rate must be within [0, 1]")
        if not 0.0 <= self.reclaim_noise <= 1.0:
            raise ConfigError("reclaim_noise must be within [0, 1]")


@dataclass(frozen=True)
class GuestConfig:
    """Guest kernel parameters (what the guest *believes* it has)."""

    memory_pages: int = mib_pages(512)
    os_kind: GuestOsKind = GuestOsKind.LINUX
    #: Guest file readahead window (pages).
    readahead_pages: int = 32
    #: Reclaim kicks in below this many free pages...
    free_min_pages: int = 0  # 0 -> derived (2% of memory)
    #: ...and restores free memory up to this level.
    free_target_pages: int = 0  # 0 -> derived (4% of memory)
    #: Dirty page-cache pages allowed before background write-back.
    dirty_threshold_fraction: float = 0.10
    #: Guest swap device capacity (area inside the virtual disk).
    guest_swap_pages: int = mib_pages(1024)
    #: Pages the guest kernel itself needs to stay alive.
    kernel_reserve_pages: int = mib_pages(16)
    #: CPU cost of zeroing one page on allocation.
    zero_page_cost: float = 1.0 * USEC
    #: Page-allocator scramble window: a fresh page is drawn uniformly
    #: from the last this-many free-list entries, modelling buddy
    #: coalescing/splitting disorder.  1 = strict LIFO.  The disorder
    #: decides how scattered recycled (host-swapped) frames are, i.e.
    #: how badly stale/false reads defeat host swap readahead.
    allocator_window: int = 64
    #: Windows-profile: background thread zeroes free-list pages,
    #: which is a whole-page overwrite (a false-read generator).
    zero_free_pages: bool = False
    #: Fraction of virtual I/O issued below 4 KiB alignment; the Mapper
    #: cannot track those transfers (Section 5.4's Windows caveat).
    unaligned_io_fraction: float = 0.0
    #: Fraction of the guest's own reclaim drawn from named pages.
    named_fraction: float = 0.75

    def validate(self) -> None:
        if self.memory_pages <= 0:
            raise ConfigError("guest memory must be positive")
        if not 0.0 <= self.unaligned_io_fraction <= 1.0:
            raise ConfigError("unaligned_io_fraction must be in [0, 1]")

    @property
    def derived_free_min(self) -> int:
        """Low watermark triggering guest reclaim."""
        return self.free_min_pages or max(64, self.memory_pages // 50)

    @property
    def derived_free_target(self) -> int:
        """High watermark guest reclaim restores."""
        return self.free_target_pages or max(128, self.memory_pages // 25)


@dataclass(frozen=True)
class VSwapperConfig:
    """Configuration of the paper's two mechanisms (Section 4)."""

    enable_mapper: bool = False
    enable_preventer: bool = False
    #: Emulation window: give up this long after a page's first
    #: emulated write (the paper's empirically chosen 1 ms).
    preventer_window: float = 1e-3
    #: Concurrent pages under emulation (the paper's 32).
    preventer_max_pages: int = 32
    #: CPU cost of emulating the writes that fill one page.
    emulation_page_cost: float = 12 * USEC
    #: Recognize REP-prefixed whole-page writes outright and skip
    #: byte-by-byte emulation (Section 4.2, last paragraph).
    rep_prefix_detection: bool = True

    def validate(self) -> None:
        if self.preventer_window <= 0:
            raise ConfigError("preventer window must be positive")
        if self.preventer_max_pages <= 0:
            raise ConfigError("preventer page cap must be positive")

    @staticmethod
    def off() -> "VSwapperConfig":
        """Baseline: no VSwapper mechanism active."""
        return VSwapperConfig()

    @staticmethod
    def mapper_only() -> "VSwapperConfig":
        """The paper's "mapper" configuration."""
        return VSwapperConfig(enable_mapper=True)

    @staticmethod
    def full() -> "VSwapperConfig":
        """The paper's "vswapper" configuration (Mapper + Preventer)."""
        return VSwapperConfig(enable_mapper=True, enable_preventer=True)


@dataclass(frozen=True)
class VmConfig:
    """One virtual machine: guest, image, limits, VSwapper state."""

    name: str = "vm0"
    guest: GuestConfig = field(default_factory=GuestConfig)
    vswapper: VSwapperConfig = field(default_factory=VSwapperConfig)
    #: Virtual disk image size.
    image_size_pages: int = mib_pages(20 * 1024)
    #: cgroup-style cap on the VM's host-resident pages (None = only
    #: global pressure applies).
    resident_limit_pages: int | None = None

    def validate(self) -> None:
        self.guest.validate()
        self.vswapper.validate()
        if self.image_size_pages <= self.guest.guest_swap_pages:
            raise ConfigError("image must be larger than the guest swap area")


@dataclass(frozen=True)
class FaultConfig:
    """Deterministic fault-injection plan (chaos testing).

    All rates are per-opportunity probabilities drawn from seeded
    substreams of the machine RNG, so a (seed, FaultConfig) pair fully
    determines every injected fault.  ``enabled=False`` (the default)
    makes every hook a no-op that consumes no randomness, keeping
    fault-free runs bit-identical to pre-fault-layer builds.
    """

    enabled: bool = False
    # --- disk layer ---------------------------------------------------
    #: Probability one disk request attempt fails transiently.
    disk_transient_error_rate: float = 0.0
    #: Probability a request suffers a latency spike...
    disk_latency_spike_rate: float = 0.0
    #: ...of this many extra seconds (a stalled head, a deep queue).
    disk_latency_spike_seconds: float = 0.05
    #: Probability an async/sync write is torn and must be reissued.
    disk_torn_write_rate: float = 0.0
    # --- retry policy (shared by disk and host swap path) -------------
    #: Failed attempts allowed before the request aborts with FaultError.
    max_retries: int = 3
    #: First retry waits this long...
    backoff_base: float = 1e-3
    #: ...and each further retry multiplies the wait by this factor.
    backoff_factor: float = 2.0
    # --- host swap path -----------------------------------------------
    #: Probability a host swap-in read fails and must be retried.
    swap_read_error_rate: float = 0.0
    #: Probability a swap slot's content fails its checksum on swap-in
    #: (unrecoverable: surfaces as HostError, never silent stale data).
    swap_slot_corruption_rate: float = 0.0
    # --- swap backend tiers (repro.swapback) --------------------------
    #: Probability one remote-memory swap request times out and is
    #: internally retried after the timeout penalty...
    remote_swap_timeout_rate: float = 0.0
    #: ...of this many seconds (far-memory fabric hiccup).
    remote_swap_timeout_seconds: float = 0.01
    #: Probability a compressed-tier store stalls on pool pressure
    #: (zsmalloc fragmentation / allocator contention)...
    compressed_stall_rate: float = 0.0
    #: ...costing this many seconds.
    compressed_stall_seconds: float = 0.002
    # --- mapper --------------------------------------------------------
    #: Probability a freshly built page<->block association is forcibly
    #: invalidated (modelling lost trust per Section 4.1).
    mapper_invalidation_rate: float = 0.0
    #: Forced invalidations a VM tolerates before its circuit breaker
    #: trips and tracking falls back to baseline swapping.
    mapper_breaker_threshold: int = 8
    # --- executor (chaos outside the simulation) ----------------------
    #: Probability a pool worker process kills itself (hard
    #: ``os._exit``) before running its cell.  Exercises the
    #: CellSupervisor's crash recovery; the serial executor ignores it
    #: (a nonzero rate makes ``make_executor`` pick the pool).
    worker_kill_rate: float = 0.0
    #: Kills only strike attempts up to this number (1 = first attempt
    #: only), so a retrying supervisor always recovers the cell.
    worker_kill_max_attempt: int = 1
    # --- host lifecycle (cluster-level chaos) -------------------------
    #: Probability a cluster host suffers a hard crash somewhere inside
    #: the fault horizon.  Crash times are drawn from a *fresh* RNG
    #: seeded by ``host_fault_seed`` (pure in (seed, host name)), never
    #: from the cluster's streams, so arming host faults cannot perturb
    #: the simulation of surviving hosts.
    host_crash_rate: float = 0.0
    #: Probability a host suffers a transient degradation window...
    host_degrade_rate: float = 0.0
    #: ...during which its disk (and therefore swap) latency is scaled
    #: by this factor...
    host_degrade_factor: float = 8.0
    #: ...for this many virtual seconds.
    host_degrade_duration: float = 30.0
    #: Host crash/degradation onsets land uniformly in [0, horizon).
    host_fault_horizon: float = 120.0
    #: Probability one migration or evacuation copy fails mid-transfer
    #: (rolled back on the source or completed on the destination --
    #: never both; see ``repro.cluster.migrate``).
    migration_failure_rate: float = 0.0
    #: Seed of the host-fault substream (crashes, degradations, and
    #: mid-copy failures all fork fresh from it).
    host_fault_seed: int = 1
    # --- evacuation (host-crash recovery policy) ----------------------
    #: Re-placement attempts per evacuating VM after the first fails.
    evac_max_retries: int = 4
    #: First evacuation retry waits this long (virtual seconds)...
    evac_backoff_base: float = 0.5
    #: ...each further retry multiplies the wait by this factor...
    evac_backoff_factor: float = 2.0
    #: ...capped at this many seconds (capped exponential backoff).
    evac_backoff_cap: float = 8.0
    #: A VM still homeless this many virtual seconds after its host
    #: failed is declared lost (per-VM evacuation deadline).
    evac_deadline: float = 60.0
    # --- simulation watchdogs (honoured even when ``enabled=False``) --
    #: Abort the run after dispatching this many engine events.
    watchdog_max_events: int | None = None
    #: Abort the run once virtual time passes this many seconds.
    watchdog_max_virtual_time: float | None = None

    def validate(self) -> None:
        for name in ("disk_transient_error_rate", "disk_latency_spike_rate",
                     "disk_torn_write_rate", "swap_read_error_rate",
                     "swap_slot_corruption_rate", "mapper_invalidation_rate",
                     "worker_kill_rate", "host_crash_rate",
                     "host_degrade_rate", "migration_failure_rate",
                     "remote_swap_timeout_rate", "compressed_stall_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{name} must be within [0, 1]: {rate}")
        if self.remote_swap_timeout_seconds < 0:
            raise ConfigError(
                "remote_swap_timeout_seconds must be non-negative")
        if self.compressed_stall_seconds < 0:
            raise ConfigError("compressed_stall_seconds must be non-negative")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be non-negative")
        if self.backoff_base < 0:
            raise ConfigError("backoff_base must be non-negative")
        if self.backoff_factor < 1.0:
            raise ConfigError("backoff_factor must be >= 1")
        if self.disk_latency_spike_seconds < 0:
            raise ConfigError("latency spike must be non-negative")
        if self.mapper_breaker_threshold <= 0:
            raise ConfigError("mapper_breaker_threshold must be positive")
        if self.worker_kill_max_attempt < 1:
            raise ConfigError("worker_kill_max_attempt must be >= 1")
        if self.host_degrade_factor < 1.0:
            raise ConfigError("host_degrade_factor must be >= 1")
        if self.host_degrade_duration <= 0:
            raise ConfigError("host_degrade_duration must be positive")
        if self.host_fault_horizon <= 0:
            raise ConfigError("host_fault_horizon must be positive")
        if self.evac_max_retries < 0:
            raise ConfigError("evac_max_retries must be non-negative")
        if self.evac_backoff_base < 0:
            raise ConfigError("evac_backoff_base must be non-negative")
        if self.evac_backoff_factor < 1.0:
            raise ConfigError("evac_backoff_factor must be >= 1")
        if self.evac_backoff_cap < self.evac_backoff_base:
            raise ConfigError(
                "evac_backoff_cap must be >= evac_backoff_base")
        if self.evac_deadline <= 0:
            raise ConfigError("evac_deadline must be positive")
        if (self.watchdog_max_events is not None
                and self.watchdog_max_events <= 0):
            raise ConfigError("watchdog_max_events must be positive")
        if (self.watchdog_max_virtual_time is not None
                and self.watchdog_max_virtual_time <= 0):
            raise ConfigError("watchdog_max_virtual_time must be positive")

    @staticmethod
    def chaos() -> "FaultConfig":
        """The standing chaos-suite plan: every layer faulted at rates a
        healthy configuration should survive (retried or degraded), with
        a generous watchdog so a wedged run aborts instead of hanging."""
        return FaultConfig(
            enabled=True,
            disk_transient_error_rate=0.002,
            disk_latency_spike_rate=0.001,
            disk_torn_write_rate=0.001,
            swap_read_error_rate=0.002,
            swap_slot_corruption_rate=0.0002,
            mapper_invalidation_rate=0.01,
            mapper_breaker_threshold=4,
            watchdog_max_events=50_000_000,
            watchdog_max_virtual_time=1e6,
        )


#: Placement policies the cluster scheduler understands.
PLACEMENT_POLICIES = ("first-fit", "balance", "pack")


@dataclass(frozen=True)
class HostNodeConfig:
    """One node of a cluster: host kernel, disk, and node-level budgets.

    The per-node budgets mirror how cluster memory overcommit is
    deployed in practice (KubeVirt's wasp-agent): admission is governed
    by an overcommit *ratio* over believed guest memory, swapping by a
    ``memory.swap.max``-style cap, and the cap's occupancy is the
    node-pressure signal the control plane migrates against.
    """

    name: str = "host0"
    host: HostConfig = field(default_factory=HostConfig)
    disk: DiskConfig = field(default_factory=DiskConfig)
    #: Admission control: the sum of believed guest memory placed on
    #: this node may reach this multiple of its physical frames
    #: (None = unlimited, the default one-host cluster's setting).
    overcommit_ratio: float | None = None
    #: ``memory.swap.max``-style cap on host swap slots this node may
    #: fill (None = the whole swap area; 0 = swapping forbidden).
    swap_budget_pages: int | None = None
    #: Fraction of the swap budget in use at which the node reports
    #: pressure and the cluster starts evacuating VMs.
    pressure_threshold: float = 0.9
    #: Where this node's swapped pages go.  None = the node's own disk
    #: (bit-identical to the pre-backend swap path); anything else
    #: builds a ``repro.swapback`` device for the host.
    swap_backend: SwapBackendConfig | None = None

    def validate(self) -> None:
        self.host.validate()
        self.disk.validate()
        if self.swap_backend is not None:
            self.swap_backend.validate()
        if not self.name:
            raise ConfigError("host node needs a name")
        if self.overcommit_ratio is not None and self.overcommit_ratio <= 0:
            raise ConfigError("overcommit_ratio must be positive")
        if (self.swap_budget_pages is not None
                and self.swap_budget_pages < 0):
            raise ConfigError("swap_budget_pages must be non-negative")
        if not 0.0 < self.pressure_threshold <= 1.0:
            raise ConfigError("pressure_threshold must be within (0, 1]")


@dataclass(frozen=True)
class ClusterMigrationConfig:
    """Pressure-driven live migration knobs."""

    enabled: bool = False
    #: Virtual seconds between node-pressure evaluations.
    check_interval: float = 5.0
    #: Migration network bandwidth (pre-copy transfer + downtime model).
    bandwidth_bytes_per_sec: float = 1.25e9

    def validate(self) -> None:
        if self.check_interval <= 0:
            raise ConfigError("migration check_interval must be positive")
        if self.bandwidth_bytes_per_sec <= 0:
            raise ConfigError("migration bandwidth must be positive")


@dataclass(frozen=True)
class ClusterConfig:
    """N hosts sharing one engine clock and one seeded RNG."""

    hosts: tuple[HostNodeConfig, ...] = (HostNodeConfig(),)
    #: Which placement policy chooses a host per incoming VM.
    placement: str = "first-fit"
    migration: ClusterMigrationConfig = field(
        default_factory=ClusterMigrationConfig)
    seed: int = 1
    #: Fault-injection plan; None means no fault layer at all (not even
    #: watchdogs).  See :class:`FaultConfig`.
    faults: FaultConfig | None = None

    def validate(self) -> None:
        if not self.hosts:
            raise ConfigError("a cluster needs at least one host")
        names = [node.name for node in self.hosts]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate host names: {names}")
        for node in self.hosts:
            node.validate()
        if self.placement not in PLACEMENT_POLICIES:
            raise ConfigError(
                f"unknown placement policy {self.placement!r}; expected "
                f"one of {PLACEMENT_POLICIES}")
        self.migration.validate()
        if self.faults is not None:
            self.faults.validate()


def scaled_pages(pages: int, scale: int) -> int:
    """Divide a page count by the experiment scale factor (min 1 page).

    Benchmarks run at ``scale`` 4--8 to keep wall-clock time sane; the
    CLI can rerun any experiment at ``scale=1`` (paper-sized).
    """
    if scale <= 0:
        raise ConfigError(f"scale must be positive: {scale}")
    return max(1, pages // scale)


__all__ = [
    "ClusterConfig",
    "ClusterMigrationConfig",
    "DISK_KINDS",
    "DiskConfig",
    "FaultConfig",
    "GuestConfig",
    "GuestOsKind",
    "HostConfig",
    "HostNodeConfig",
    "HypervisorKind",
    "PLACEMENT_POLICIES",
    "SWAP_BACKEND_KINDS",
    "SwapBackendConfig",
    "VSwapperConfig",
    "VmConfig",
    "replace",
    "scaled_pages",
    "swap_backend_config",
]
