"""Chrome trace-event export: structure, validation, determinism."""

import json

from repro.exec.executor import run_sweep
from repro.exec.supervisor import CellSupervisor
from repro.exec.store import ResultStore
from repro.context import RunContext, run_context
from repro.trace.collector import TraceCollector
from repro.trace.export import (
    chrome_trace,
    render_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.trace.tools import load_traced_cells


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0


def small_trace():
    trace = TraceCollector(FakeClock(), mode="full")
    sid = trace.begin_span("FileRead", vm="vm0")
    trace.clock.now = 0.5
    trace.emit("fault.major", vm="vm0", gpa=3, stale=True)
    trace.clock.now = 1.0
    trace.end_span(sid)
    trace.emit("engine.stop")
    return trace.finish()


def test_chrome_trace_structure():
    document = chrome_trace([("cell-a", small_trace())])
    assert validate_chrome_trace(document) == []
    records = document["traceEvents"]

    meta = [r for r in records if r["ph"] == "M"]
    assert meta[0]["args"]["name"] == "cell-a"

    spans = [r for r in records if r["ph"] == "X"]
    assert spans[0]["name"] == "FileRead"
    assert spans[0]["ts"] == 0.0 and spans[0]["dur"] == 1e6  # us

    instants = {r["name"]: r for r in records if r["ph"] == "i"}
    fault = instants["fault.major"]
    assert fault["cat"] == "fault" and fault["s"] == "t"
    assert fault["ts"] == 0.5e6
    assert fault["args"]["stale"] is True
    assert fault["args"]["vm"] == "vm0"
    assert fault["args"]["sid"] == spans[0]["args"]["sid"]
    assert "sid" not in instants["engine.stop"]["args"]


def test_cells_become_distinct_processes():
    document = chrome_trace(
        [("cell-a", small_trace()), ("cell-b", small_trace())])
    pids = {r["args"]["name"]: r["pid"]
            for r in document["traceEvents"] if r["ph"] == "M"}
    assert pids == {"cell-a": 0, "cell-b": 1}


def test_validator_catches_malformed_documents():
    assert validate_chrome_trace({}) == \
        ["traceEvents is missing or not a list"]
    problems = validate_chrome_trace({"traceEvents": [
        "not a record",
        {"ph": "Z", "name": "bad-phase"},
        {"ph": "i", "name": "no-ts", "s": "t"},
        {"ph": "X", "name": "no-dur", "ts": 0},
        {"ph": "i", "name": "no-scope", "ts": 0},
    ]})
    assert len(problems) == 5


def test_write_creates_parent_directories(tmp_path):
    target = tmp_path / "deep" / "nested" / "trace.json"
    written = write_chrome_trace(target, [("cell-a", small_trace())])
    assert written == target
    document = json.loads(target.read_text())
    assert validate_chrome_trace(document) == []


def test_render_is_stable():
    cells = [("cell-a", small_trace())]
    assert render_chrome_trace(cells) == render_chrome_trace(cells)


def test_parallel_sweep_exports_byte_identically_to_serial(tmp_path):
    """Acceptance criterion: the merged export of a parallel traced
    sweep is byte-identical to a serial one's."""
    from repro.experiments.registry import EXPERIMENTS

    sweep = EXPERIMENTS["fig3"].build_sweep(scale=32)
    with run_context(RunContext(trace="full")):
        serial_store = ResultStore(tmp_path / "serial")
        run_sweep(sweep, store=serial_store)
        parallel_store = ResultStore(tmp_path / "parallel")
        run_sweep(sweep, executor=CellSupervisor(2), store=parallel_store)

    documents = []
    for store in (serial_store, parallel_store):
        cells = load_traced_cells(store, "fig3", scale=32)
        assert not cells.notes, cells.notes
        documents.append(render_chrome_trace(
            [(spec.cell_id, result.trace)
             for spec, result in cells.traced]))
    assert documents[0] == documents[1]
    assert validate_chrome_trace(json.loads(documents[0])) == []
