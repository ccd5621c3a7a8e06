"""Structured event tracing, causal spans, and root-cause analysis.

The subsystem has four parts:

* :mod:`repro.trace.collector` -- the recording side.  Every
  instrumented layer (engine, hypervisor, mapper, reclaim, disk,
  driver) holds a collector reference that defaults to the module-level
  no-op :data:`~repro.trace.collector.NULL_TRACE`; hot paths guard each
  emit with ``if trace.enabled:`` so disabled runs pay essentially
  nothing.  A :class:`~repro.cluster.Cluster` installs a live
  :class:`~repro.trace.collector.TraceCollector` when the run
  context's tracing mode says so.
* :mod:`repro.trace.events` -- the typed data model
  (:class:`TraceEvent`, :class:`Span`, frozen :class:`TraceData`)
  that rides worker pipes and the result store.
* :mod:`repro.trace.analyzer` -- re-derives the paper's five
  root-cause counts from the event stream alone and cross-checks them
  against :class:`~repro.metrics.counters.Counters`.
* :mod:`repro.trace.export` / :mod:`repro.trace.tools` -- the Chrome
  trace-event exporter and the store-backed ``trace`` CLI tooling.

The tracing *mode* is the run context's ``trace`` field
(:class:`~repro.context.RunContext`, set by ``run --trace[=sampled]``):
every machine built under it records, in worker processes too.
"""

from repro.context import TRACE_MODES, current_context
from repro.trace.analyzer import ROOT_CAUSES, TraceAnalyzer
from repro.trace.collector import NULL_TRACE, TraceCollector
from repro.trace.events import TRACE_SCHEMA_VERSION, Span, TraceData, TraceEvent


def tracing_mode() -> str | None:
    """The mode machines should build their collectors with (None = off)."""
    return current_context().trace


__all__ = [
    "NULL_TRACE",
    "ROOT_CAUSES",
    "Span",
    "TRACE_MODES",
    "TRACE_SCHEMA_VERSION",
    "TraceAnalyzer",
    "TraceCollector",
    "TraceData",
    "TraceEvent",
    "tracing_mode",
]
