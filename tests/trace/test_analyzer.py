"""Analyzer tests: synthetic signature counting plus the live
trace/counter cross-check the tracing subsystem exists for."""

import pytest

from repro.context import RunContext, run_context
from repro.errors import TraceError
from repro.trace.analyzer import ROOT_CAUSES, TraceAnalyzer
from repro.trace.events import Span, TraceData, TraceEvent


def ev(seq: int, kind: str, span: int | None = None, **args) -> TraceEvent:
    return TraceEvent(seq, float(seq), kind, span=span, args=args)


def trace_of(*events: TraceEvent, mode: str = "full",
             spans: list | None = None, **kwargs) -> TraceData:
    return TraceData(mode=mode, events=list(events), spans=spans or [],
                     emitted=len(events), **kwargs)


def test_each_root_cause_has_its_event_signature():
    trace = trace_of(
        ev(0, "swap.out", silent=True),
        ev(1, "swap.out", silent=False),
        ev(2, "fault.major", stale=True, context="host"),
        ev(3, "fault.major", stale=False, context="guest"),
        ev(4, "fault.false_read", gpa=9),
        ev(5, "fault.code", index=2),
        ev(6, "mapper.name", gpa=1),  # not a root cause
    )
    assert TraceAnalyzer(trace).root_causes() == {
        "silent_swap_writes": 1,
        "stale_reads": 1,
        "false_reads": 1,
        "guest_context_faults": 1,
        "hypervisor_code_faults": 1,
    }


def test_stale_guest_fault_counts_toward_both_causes():
    trace = trace_of(ev(0, "fault.major", stale=True, context="guest"))
    counts = TraceAnalyzer(trace).root_causes()
    assert counts["stale_reads"] == 1
    assert counts["guest_context_faults"] == 1


def test_counts_sum_across_traces():
    one = trace_of(ev(0, "swap.out", silent=True))
    two = trace_of(ev(0, "swap.out", silent=True), ev(1, "fault.code"))
    counts = TraceAnalyzer([one, two]).root_causes()
    assert counts["silent_swap_writes"] == 2
    assert counts["hypervisor_code_faults"] == 1


def test_no_traces_is_an_error():
    with pytest.raises(TraceError, match="no traces"):
        TraceAnalyzer([])


def test_cross_check_exact_when_counts_agree():
    trace = trace_of(ev(0, "swap.out", silent=True))
    counters = dict.fromkeys(ROOT_CAUSES, 0)
    counters["silent_swap_writes"] = 1
    counters["swap_sectors_written"] = 99  # unrelated counters ignored
    assert TraceAnalyzer(trace).cross_check(counters) == []


def test_cross_check_reports_each_disagreement():
    trace = trace_of(ev(0, "swap.out", silent=True))
    mismatches = TraceAnalyzer(trace).cross_check(
        {"silent_swap_writes": 2, "stale_reads": 1})
    assert len(mismatches) == 2
    assert any("silent_swap_writes" in m for m in mismatches)
    assert any("stale_reads" in m for m in mismatches)


def test_incomplete_traces_refuse_exactness():
    sampled = trace_of(mode="sampled", sampled_out=3)
    clipped = trace_of(ev(0, "fault.code"), dropped=7)
    for trace in (sampled, clipped):
        lines = TraceAnalyzer(trace).cross_check(
            dict.fromkeys(ROOT_CAUSES, 0))
        assert lines and all(
            line.startswith("exact cross-check impossible") for line in lines)
    issues = TraceAnalyzer([sampled, clipped]).completeness_issues()
    assert len(issues) == 2


def test_verify_raises_on_mismatch_and_returns_counts_on_success():
    trace = trace_of(ev(0, "fault.false_read"))
    with pytest.raises(TraceError, match="cross-check failed"):
        TraceAnalyzer(trace).verify(dict.fromkeys(ROOT_CAUSES, 0))
    good = dict.fromkeys(ROOT_CAUSES, 0)
    good["false_reads"] = 1
    assert TraceAnalyzer(trace).verify(good)["false_reads"] == 1


def test_top_spans_ranks_by_caused_then_duration():
    spans = [
        Span(1, "FileRead", "vm0", 0.0, 5.0),
        Span(2, "Touch", "vm0", 0.0, 1.0),
        Span(3, "Idle", "vm0", 0.0, 9.0),
    ]
    trace = trace_of(
        ev(0, "fault.major", span=1),
        ev(1, "disk.submit", span=1),
        ev(2, "fault.major", span=2),
        ev(3, "disk.submit", span=2),
        spans=spans,
    )
    ranked = TraceAnalyzer(trace).top_spans()
    # 1 and 2 tie on caused events (2 each); the longer span wins.
    assert [(span.sid, caused) for span, caused in ranked] == [
        (1, 2), (2, 2), (3, 0)]
    assert [span.sid for span, _ in TraceAnalyzer(trace).top_spans(2)] \
        == [1, 2]
    assert TraceAnalyzer(trace).top_spans(0) == []


def test_live_cell_cross_checks_bit_exactly():
    """The acceptance criterion: on a real fig9 cell the analyzer's
    five counts equal the simulation's Counters exactly."""
    from repro.experiments.registry import EXPERIMENTS, cell_runner

    sweep = EXPERIMENTS["fig9"].build_sweep(scale=32)
    spec = sweep.cells[0]  # baseline: every pathology fires
    with run_context(RunContext(trace="full")):
        result = cell_runner(spec.experiment_id)(spec)
    assert result.trace is not None and result.trace.complete
    derived = TraceAnalyzer(result.trace).verify(result.counters)
    assert derived["silent_swap_writes"] > 0
    assert derived["hypervisor_code_faults"] > 0
