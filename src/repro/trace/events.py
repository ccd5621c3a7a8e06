"""Typed trace records: events, causal spans, and the frozen trace.

The vocabulary mirrors the paper's mechanisms one-to-one so the
analyzer can re-derive its figures from the stream alone:

=====================  =====================================================
kind                   emitted by / meaning
=====================  =====================================================
``fault.major``        hypervisor major fault (args: gpa, context, stale)
``fault.false_read``   old content read only to be fully overwritten
``fault.code``         fault on an evicted QEMU executable page
``swap.out``           one page queued for swap write (args: silent)
``swap.in``            swap-in cluster read (args: pages, sectors)
``mapper.name``        Mapper built a gpa<->block association
``mapper.discard``     reclaim discarded a tracked page instead of swapping
``mapper.reread``      discarded page re-read from the disk image
``mapper.drop``        an association was severed (COW, consistency, ...)
``reclaim.scan``       one victim-selection pass (args: examined, victims)
``balloon.pin``        balloon inflation pinned pages (args: pages)
``balloon.unpin``      balloon deflation released pages (args: pages)
``disk.submit``        request queued at the device (args: sector, write)
``disk.complete``      the same request leaving the head (time = completion)
``swapback.store``     non-disk backend absorbed a swap write-back run
                       (args: tier, slot, pages, throttle)
``swapback.load``      non-disk backend served a swap-in (args: tier,
                       slot, pages, stall; 0.0 for async merge reads)
``swapback.promote``   tiering policy pulled a hot page fast-ward
                       (args: tier=``slow->fast``, slot)
``swapback.demote``    tiering policy evicted a fast-tier page
                       (args: tier=``fast->slow``, slot)
``preventer.emulate``  Preventer classified a whole-page overwrite
``preventer.merge``    an emulation buffer was merged back (args: sync)
``phase.mark``         workload phase boundary (args: name)
``cluster.place``      scheduler placed a VM on a host (args: host)
``cluster.migrate``    a migration attempt ran (args: src, dst, pages,
                       bytes, downtime, outcome -- ``completed`` or
                       ``rolled-back`` on mid-copy failure)
``host.fail``          a host hard-crashed (args: host, vms orphaned)
``host.degrade``       a degradation window opened (args: host, factor)
``host.recover``       the degradation window closed (args: host)
``evac.start``         recovery took charge of an orphaned VM (args:
                       src, pages)
``evac.retry``         an evacuation attempt failed; backing off (args:
                       attempt, backoff, error)
``evac.done``          the VM was re-homed (args: src, dst, attempt,
                       downtime)
``evac.lost``          recovery gave the VM up (args: src, reason,
                       attempts)
``engine.stop``        the engine was halted
``engine.watchdog``    a watchdog limit fired (the run is about to abort)
=====================  =====================================================

Multi-host cluster runs share one collector; each host-side event then
additionally carries ``host=<name>`` in its args (one-host clusters
omit it, so single-host event bytes carry no host tag).

A *span* brackets one guest operation (``FileRead``, ``Touch``, ...);
every event emitted while it is open carries its id, which is the
causal link from a triggering guest op to its host-side consequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError

#: Version of the persisted trace schema.  Folded into serialization
#: checks so a stale stored trace reads as an explicit error, never as
#: silently misinterpreted data.
TRACE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped, typed occurrence."""

    #: Emission order (dense over *recorded* events, per collector).
    seq: int
    #: Virtual time of the occurrence (may lie in the future relative
    #: to emission for completion-style events like ``disk.complete``).
    time: float
    kind: str
    #: Name of the VM involved, or None for machine-wide events.
    vm: str | None = None
    #: Id of the innermost open span at emission, or None.
    span: int | None = None
    args: dict = field(default_factory=dict)


@dataclass
class Span:
    """One causal interval: a guest operation and everything it caused."""

    sid: int
    name: str
    vm: str | None
    begin: float
    #: None while the span is open; :meth:`TraceCollector.finish`
    #: closes stragglers at the final clock reading.
    end: float | None = None

    @property
    def duration(self) -> float:
        """Seconds the span covered (0 while still open)."""
        return 0.0 if self.end is None else self.end - self.begin


@dataclass
class TraceData:
    """A finished, immutable trace: what one cell's run recorded.

    Plain data only -- it crosses worker pipes (pickle) and the result
    store (JSON) exactly like a :class:`~repro.metrics.timeline.Timeline`.
    """

    #: Collector mode that produced the trace: ``"full"`` or ``"sampled"``.
    mode: str
    events: list[TraceEvent] = field(default_factory=list)
    spans: list[Span] = field(default_factory=list)
    #: Events recorded over the trace's lifetime (>= len(events) when
    #: the ring evicted old entries).
    emitted: int = 0
    #: Events evicted by the capacity cap.
    dropped: int = 0
    #: Top-level spans skipped by sampling (with all their events).
    sampled_out: int = 0

    @property
    def complete(self) -> bool:
        """Whether every emitted event survived into the trace (the
        precondition for the analyzer's exact cross-check)."""
        return self.mode == "full" and self.dropped == 0 \
            and self.sampled_out == 0

    def to_dict(self) -> dict:
        """Compact JSON-ready form (events and spans as flat lists)."""
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "mode": self.mode,
            "events": [
                [e.seq, e.time, e.kind, e.vm, e.span, e.args]
                for e in self.events
            ],
            "spans": [
                [s.sid, s.name, s.vm, s.begin, s.end] for s in self.spans
            ],
            "emitted": self.emitted,
            "dropped": self.dropped,
            "sampled_out": self.sampled_out,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceData":
        """Inverse of :meth:`to_dict`."""
        found = data.get("schema")
        if found != TRACE_SCHEMA_VERSION:
            raise ReproError(
                f"trace schema version {found!r} != {TRACE_SCHEMA_VERSION} "
                f"(refusing to deserialize)")
        return cls(
            mode=data["mode"],
            events=[
                TraceEvent(seq, time, kind, vm, span, dict(args))
                for seq, time, kind, vm, span, args in data["events"]
            ],
            spans=[
                Span(sid, name, vm, begin, end)
                for sid, name, vm, begin, end in data["spans"]
            ],
            emitted=data["emitted"],
            dropped=data["dropped"],
            sampled_out=data["sampled_out"],
        )
