"""Span recording around the public boundary of each ``repro`` layer.

Nothing in ``src/`` knows about this module.  :class:`Patcher` swaps
wrapper functions in for the boundary functions named in
:data:`LAYERS` (class attributes or module globals) and puts the
originals back on exit, so the program under test is unchanged while a
recorder is not installed.  Every cell builds fresh objects, so a
wrapper installed before a cell also reaches methods the program binds
at construction time (periodic ticks, cached bound methods).

Two recorders use that mechanism:

* :class:`SetupTimer` -- always on.  It times the calls that build a
  simulation before its engine runs (``Cluster(...)``, VM creation,
  boot history, static balloons), outermost call only, in process CPU
  seconds.  These are a handful of calls per cell, so the untraced
  end-to-end run pays nothing measurable for it.
* :class:`SpanRecorder` -- the traced run only.  Each wrapped call is a
  span; a span's self time is its duration minus the time covered by
  the spans it caused.  Spans nest on one stack (the simulator is
  single-threaded), so the per-layer self times add up to the root
  ``exec`` spans exactly.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from typing import Callable, Iterator


@dataclass(frozen=True)
class Layer:
    """One ``repro`` package: where its spans come from, what it moves."""

    name: str
    #: ``(module, qualified name)`` of each boundary function.
    boundaries: tuple[tuple[str, str], ...]
    #: The end-to-end metric and workloads this layer should move.
    moves: str


#: The calls that build a simulation before its engine runs: what
#: :class:`SetupTimer` times, and the set-up half of ``cluster``.
SETUP_BOUNDARIES = (
    ("repro.cluster.cluster", "Cluster.__init__"),
    ("repro.cluster.cluster", "Cluster.create_vm"),
    ("repro.cluster.host", "Host.boot_guest"),
    ("repro.cluster.host", "Host.apply_static_balloon"),
)

#: Every layer, outermost first.  The ``swapback`` boundaries are
#: expanded at install time to every concrete backend class.
LAYERS: tuple[Layer, ...] = (
    Layer("exec", (("repro.exec.executor", "execute_cell"),),
          "cpu_s on every workload (harness overhead)"),
    Layer("cluster", SETUP_BOUNDARIES + (
        ("repro.cluster.cluster", "Cluster.pressure_tick"),
        ("repro.cluster.cluster", "Cluster.migrate"),
        ("repro.cluster.cluster", "choose_host"),
        ("repro.cluster.recovery", "choose_host"),
        ("repro.cluster.recovery", "EvacuationController.begin"),
    ), "setup_s on every workload; cpu_s on fleet"),
    Layer("sim", (("repro.sim.engine", "Engine.run"),),
          "cpu_s on fleet and mapreduce"),
    Layer("guest", (
        ("repro.guest.kernel", "GuestKernel.execute"),
        ("repro.guest.kernel", "GuestKernel.inflate"),
        ("repro.guest.kernel", "GuestKernel.deflate"),
        ("repro.guest.kernel", "GuestKernel.apply_balloon"),
    ), "cpu_s on mapreduce"),
    Layer("host", (
        ("repro.host.hypervisor", "Hypervisor.touch_page"),
        ("repro.host.hypervisor", "Hypervisor.overwrite_page"),
        ("repro.host.hypervisor", "Hypervisor.virtio_read"),
        ("repro.host.hypervisor", "Hypervisor.virtio_write"),
        ("repro.host.hypervisor", "Hypervisor.balloon_pin"),
        ("repro.host.hypervisor", "Hypervisor.balloon_unpin"),
        ("repro.host.hypervisor", "Hypervisor.free_swap_slot"),
    ), "cpu_s on mapreduce; nearly flat on fileread"),
    Layer("mem", (
        ("repro.mem.reclaim", "ReclaimScanner.pick_victims"),
        ("repro.mem.frames", "FramePool.allocate"),
        ("repro.mem.frames", "FramePool.release"),
        ("repro.mem.ept", "Ept.map_page"),
        ("repro.mem.ept", "Ept.unmap_page"),
    ), "cpu_s on fileread"),
    Layer("core", (
        ("repro.core.mapper", "SwapMapper.track"),
        ("repro.core.mapper", "SwapMapper.mark_discarded"),
        ("repro.core.mapper", "SwapMapper.mark_refaulted"),
        ("repro.core.mapper", "SwapMapper.drop_gpa"),
        ("repro.core.preventer", "FalseReadsPreventer.classify_overwrite"),
        ("repro.core.preventer", "FalseReadsPreventer.expired"),
    ), "cpu_s on mapreduce and fileread; its counters move "
       "sim_runtime_s"),
    Layer("disk", (
        ("repro.disk.device", "DiskDevice.read"),
        ("repro.disk.device", "DiskDevice.read_async"),
        ("repro.disk.device", "DiskDevice.write_async"),
        ("repro.disk.device", "DiskDevice.write_sync"),
        ("repro.disk.swaparea", "HostSwapArea.allocate"),
        ("repro.disk.swaparea", "HostSwapArea.allocate_run"),
        ("repro.disk.swaparea", "HostSwapArea.free"),
    ), "cpu_s on fileread; its simulated numbers move sim_runtime_s "
       "there"),
    Layer("swapback", (), "cpu_s on swaptier only"),
    Layer("balloon", (("repro.balloon.manager", "BalloonManager.tick"),),
          "cpu_s on mapreduce"),
)

LAYER_NAMES = tuple(layer.name for layer in LAYERS)

#: Swap-backend methods wrapped on every class that defines them.
SWAPBACK_METHODS = ("store", "load", "load_async")
SWAPBACK_MODULES = ("repro.swapback.base", "repro.swapback.disk",
                    "repro.swapback.devices", "repro.swapback.zram",
                    "repro.swapback.tiered")


def swapback_boundaries() -> tuple[tuple[str, str], ...]:
    """``(module, qualname)`` of store/load/load_async on every backend
    class that defines one itself (inherited ones are wrapped once, on
    the class that defines them)."""
    for name in SWAPBACK_MODULES:
        importlib.import_module(name)
    base = importlib.import_module("repro.swapback.base").SwapBackend
    found = []
    pending = [base]
    while pending:
        cls = pending.pop(0)
        pending.extend(cls.__subclasses__())
        for method in SWAPBACK_METHODS:
            if method in vars(cls):
                found.append(
                    (cls.__module__, f"{cls.__qualname__}.{method}"))
    return tuple(found)


def layer_boundaries() -> Iterator[tuple[str, str, str]]:
    """``(layer, module, qualname)`` of every traced boundary."""
    for layer in LAYERS:
        boundaries = (swapback_boundaries() if layer.name == "swapback"
                      else layer.boundaries)
        for module, qualname in boundaries:
            yield layer.name, module, qualname


class Patcher:
    """Replace named functions by wrappers; restore them on exit."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, module: str, qualname: str,
             make: Callable[[Callable, str], Callable]) -> None:
        """Install ``make(original, "module:qualname")`` in its place."""
        owner = importlib.import_module(module)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        if not callable(original):
            raise TypeError(f"{module}:{qualname} is not a plain function")
        wrapper = make(original, f"{module}:{qualname}")
        functools.update_wrapper(wrapper, original)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every original back, last wrapped first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class SetupTimer:
    """Process CPU seconds spent in the set-up calls, outermost only."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._depth = 0

    def install(self, patcher: Patcher) -> None:
        for module, qualname in SETUP_BOUNDARIES:
            patcher.wrap(module, qualname, self._make)

    def _make(self, fn: Callable, _name: str) -> Callable:
        clock = time.process_time

        def timed(*args, **kwargs):
            self._depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self.seconds += clock() - start
        return timed


class SpanRecorder:
    """Per-layer span counts and self times for the traced run."""

    def __init__(self) -> None:
        self.calls = dict.fromkeys(LAYER_NAMES, 0)
        self.self_s = dict.fromkeys(LAYER_NAMES, 0.0)
        #: Spans per boundary function, ``"module:qualname"`` -> count.
        self.boundary_calls: dict[str, int] = {}
        #: Summed duration of spans that opened on an empty stack.
        self.root_s = 0.0
        #: Spans that opened on an empty stack in a layer other than
        #: ``exec``: a boundary reached outside any cell.
        self.orphans = 0
        #: One child-time accumulator per open span.
        self._stack: list[list[float]] = []

    def install(self, patcher: Patcher) -> None:
        for layer, module, qualname in layer_boundaries():
            patcher.wrap(module, qualname,
                         functools.partial(self._make, layer))

    def _make(self, layer: str, fn: Callable, name: str) -> Callable:
        calls, self_s = self.calls, self.self_s
        boundary_calls = self.boundary_calls
        boundary_calls.setdefault(name, 0)
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self_s[layer] += duration - children[0]
                calls[layer] += 1
                boundary_calls[name] += 1
                if stack:
                    stack[-1][0] += duration
                else:
                    self.root_s += duration
                    if layer != "exec":
                        self.orphans += 1
        return span
