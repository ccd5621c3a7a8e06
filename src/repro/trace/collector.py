"""The trace collector: a bounded ring of events plus causal spans.

Two implementations share one interface:

* :data:`NULL_TRACE` -- the module-level default every instrumented
  layer starts with.  ``enabled`` is False, every method is a no-op,
  and hot paths guard their emits with ``if trace.enabled:`` so a
  disabled run pays one attribute read per site, nothing more.
* :class:`TraceCollector` -- installed by the machine when the run
  context's tracing mode is on.  Events land in a ``deque`` ring
  capped at ``capacity`` (old events are evicted and counted, never an
  error), and ``"sampled"`` mode keeps only every ``sample_every``-th
  top-level span -- events inside a sampled-out span are suppressed
  wholesale, while events outside any span (disk completions from
  earlier requests, engine marks) always record.

The collector mutates nothing in the simulation and only *reads* the
clock, so a traced run is bit-identical to an untraced one -- a
property the test suite asserts.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigError
from repro.trace.events import Span, TraceData, TraceEvent

#: Modes a live collector accepts.
COLLECTOR_MODES = ("full", "sampled")

#: Default event/span ring capacity.
DEFAULT_CAPACITY = 1_000_000

#: Default sampling stride: ``"sampled"`` keeps one top-level span in
#: this many.
DEFAULT_SAMPLE_EVERY = 8

#: Span id returned for suppressed (sampled-out) spans; real ids start
#: at 1 so a 0 is always safe to pass back to :meth:`end_span`.
NULL_SPAN = 0


class NullTraceCollector:
    """The do-nothing collector: the zero-cost-when-disabled default."""

    enabled = False

    def emit(self, kind: str, *, vm: str | None = None,
             at: float | None = None, **args) -> None:
        """Discard the event."""

    def begin_span(self, name: str, *, vm: str | None = None) -> int:
        """No span is opened; returns :data:`NULL_SPAN`."""
        return NULL_SPAN

    def end_span(self, sid: int) -> None:
        """Nothing to close."""

    def reset(self) -> None:
        """Nothing to clear."""

    def finish(self) -> None:
        """No trace was recorded."""
        return None


#: The shared no-op collector every instrumented layer defaults to.
NULL_TRACE = NullTraceCollector()


class HostTaggedTrace:
    """A per-host view of a shared collector.

    A multi-host cluster records into *one* ring (cross-host ordering
    is the point), but every event must say which host produced it.
    Hosts therefore get this thin wrapper, which stamps ``host=<name>``
    into each event's args; a one-host cluster keeps the raw collector,
    so single-host event bytes carry no host tag.
    """

    def __init__(self, collector: TraceCollector, host: str) -> None:
        self._collector = collector
        self.host = host

    @property
    def enabled(self) -> bool:
        return self._collector.enabled

    def emit(self, kind: str, *, vm: str | None = None,
             at: float | None = None, **args) -> None:
        self._collector.emit(kind, vm=vm, at=at, host=self.host, **args)

    def begin_span(self, name: str, *, vm: str | None = None) -> int:
        return self._collector.begin_span(name, vm=vm)

    def end_span(self, sid: int) -> None:
        self._collector.end_span(sid)

    def reset(self) -> None:
        self._collector.reset()

    def finish(self):
        return self._collector.finish()


class TraceCollector:
    """Record typed events and causal spans against a virtual clock."""

    enabled = True

    def __init__(self, clock, *, mode: str = "full",
                 capacity: int = DEFAULT_CAPACITY,
                 sample_every: int = DEFAULT_SAMPLE_EVERY) -> None:
        if mode not in COLLECTOR_MODES:
            raise ConfigError(
                f"unknown trace mode {mode!r}; expected one of "
                f"{COLLECTOR_MODES}")
        if capacity < 1:
            raise ConfigError(f"trace capacity must be positive: {capacity}")
        if sample_every < 1:
            raise ConfigError(
                f"sample_every must be positive: {sample_every}")
        self.clock = clock
        self.mode = mode
        self.capacity = capacity
        self.sample_every = sample_every
        self.reset()

    def reset(self) -> None:
        """Discard everything recorded so far.

        The machine calls this after untimed setup (guest boot history)
        at the same moment it resets counters and quiesces the disk, so
        the trace and the counters describe exactly the same window --
        the precondition for the analyzer's bit-exact cross-check.
        """
        self._events: deque[TraceEvent] = deque(maxlen=self.capacity)
        self._spans: deque[Span] = deque(maxlen=self.capacity)
        self._open: dict[int, Span] = {}
        self._stack: list[int] = []
        self._seq = 0
        self._next_sid = NULL_SPAN + 1
        self._span_seen = 0
        #: Depth of nesting inside a sampled-out top-level span.
        self._suppress = 0
        self._sampled_out = 0
        self._spans_recorded = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def emit(self, kind: str, *, vm: str | None = None,
             at: float | None = None, **args) -> None:
        """Record one event.

        ``at`` overrides the timestamp for completion-style events whose
        occurrence lies in the virtual future (``disk.complete``).
        Inside a sampled-out span the event is suppressed.
        """
        if self._suppress:
            return
        self._events.append(TraceEvent(
            self._seq,
            self.clock.now if at is None else at,
            kind, vm,
            self._stack[-1] if self._stack else None,
            args))
        self._seq += 1

    def begin_span(self, name: str, *, vm: str | None = None) -> int:
        """Open a causal span; subsequent events carry its id.

        In ``"sampled"`` mode only every ``sample_every``-th *top-level*
        span is kept; a skipped span returns :data:`NULL_SPAN` and
        suppresses everything until its matching :meth:`end_span`.
        """
        if self._suppress:
            self._suppress += 1
            return NULL_SPAN
        if self.mode == "sampled" and not self._stack:
            self._span_seen += 1
            if (self._span_seen - 1) % self.sample_every:
                self._suppress = 1
                self._sampled_out += 1
                return NULL_SPAN
        sid = self._next_sid
        self._next_sid += 1
        self._open[sid] = Span(sid, name, vm, self.clock.now)
        self._stack.append(sid)
        return sid

    def end_span(self, sid: int) -> None:
        """Close a span opened by :meth:`begin_span`."""
        if sid == NULL_SPAN:
            if self._suppress:
                self._suppress -= 1
            return
        span = self._open.pop(sid, None)
        if span is None:
            return  # closed twice, or cleared by an interleaved reset
        span.end = self.clock.now
        if sid in self._stack:
            # Normally the top of the stack; an exception unwinding out
            # of nested spans may close them out of order.
            self._stack.remove(sid)
        self._spans.append(span)
        self._spans_recorded += 1

    # ------------------------------------------------------------------
    # extraction
    # ------------------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Events evicted from the ring so far."""
        return self._seq - len(self._events)

    def finish(self) -> TraceData:
        """Freeze the recording into an immutable :class:`TraceData`.

        Spans still open (a crashed run abandoned mid-operation) are
        closed at the current clock reading.
        """
        for sid in list(self._stack):
            self.end_span(sid)
        for sid in list(self._open):
            self.end_span(sid)
        return TraceData(
            mode=self.mode,
            events=list(self._events),
            spans=sorted(self._spans, key=lambda s: s.sid),
            emitted=self._seq,
            dropped=self.dropped + (self._spans_recorded
                                    - len(self._spans)),
            sampled_out=self._sampled_out,
        )
