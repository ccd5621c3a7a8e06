"""ResultStore: content-addressed caching, integrity, and locking."""

import json

import pytest

from repro.errors import ConfigError, StoreContentionError, StoreIntegrityError
from repro.exec import store as store_module
from repro.exec.executor import run_sweep
from repro.exec.spec import CellSpec, Sweep
from repro.exec.store import (
    QuarantineReason,
    ResultStore,
    _payload_checksum,
    cell_key,
)
from repro.experiments import registry
from repro.experiments.runner import (
    ConfigName,
    FigureResult,
    PhaseMark,
    RunResult,
)
from repro.faults.plan import capped_backoff


def _spec(**overrides) -> CellSpec:
    defaults = dict(experiment_id="exp", cell_id="cell", scale=4,
                    config="baseline", params={"actual_mib": 512})
    defaults.update(overrides)
    return CellSpec(**defaults)


def _result() -> RunResult:
    return RunResult(
        config=ConfigName.BASELINE,
        runtime=12.5,
        crashed=False,
        counters={"disk_ops": 42},
        phases=[PhaseMark("iteration-start", {}, 1.0, {"disk_ops": 1})],
    )


def test_cell_round_trip(tmp_path):
    store = ResultStore(tmp_path)
    spec = _spec()
    store.store_cell(spec, _result(), wall_seconds=0.5)
    assert store.has_cell(spec)
    assert store.load_cell(spec) == _result()


def test_missing_cell_is_a_miss(tmp_path):
    store = ResultStore(tmp_path)
    assert store.load_cell(_spec()) is None
    assert not store.has_cell(_spec())


def test_any_spec_change_changes_the_key():
    base = _spec()
    variants = [
        _spec(scale=8),
        _spec(seed=2),
        _spec(config="vswapper"),
        _spec(params={"actual_mib": 256}),
        _spec(faults={"enabled": True}),
    ]
    keys = {cell_key(s) for s in [base] + variants}
    assert len(keys) == len(variants) + 1


def test_param_change_is_a_cache_miss(tmp_path):
    store = ResultStore(tmp_path)
    store.store_cell(_spec(), _result(), wall_seconds=0.1)
    assert store.load_cell(_spec(params={"actual_mib": 256})) is None


def test_corrupt_record_reads_as_miss(tmp_path):
    store = ResultStore(tmp_path)
    spec = _spec()
    path = store.store_cell(spec, _result(), wall_seconds=0.1)
    path.write_text("{ not json")
    assert store.load_cell(spec) is None


def test_stale_key_reads_as_miss(tmp_path):
    store = ResultStore(tmp_path)
    spec = _spec()
    path = store.store_cell(spec, _result(), wall_seconds=0.1)
    record = json.loads(path.read_text())
    record["key"] = "0" * 64
    path.write_text(json.dumps(record))
    assert store.load_cell(spec) is None


def test_record_from_the_previous_result_schema_is_a_resume_miss(
        tmp_path, monkeypatch):
    """A store written before a result-schema bump (such as the one that
    changed what cluster-chaos cells report) never serves its rows."""
    monkeypatch.setitem(registry.CELL_RUNNERS, "exp", lambda spec: _result())
    sweep = Sweep("exp", (_spec(),))
    store = ResultStore(tmp_path)
    with monkeypatch.context() as old_schema:
        old_schema.setattr(store_module, "RESULT_SCHEMA_VERSION",
                           store_module.RESULT_SCHEMA_VERSION - 1)
        run_sweep(sweep, store=store)
        assert run_sweep(sweep, store=store, resume=True).cached == 1

    outcome = run_sweep(sweep, store=store, resume=True)
    assert (outcome.executed, outcome.cached) == (1, 0)


def test_root_collision_raises_config_error(tmp_path):
    not_a_dir = tmp_path / "occupied"
    not_a_dir.write_text("file, not a directory")
    with pytest.raises(ConfigError):
        ResultStore(not_a_dir)


def test_cell_timings_read_back(tmp_path):
    store = ResultStore(tmp_path)
    store.store_cell(_spec(cell_id="a"), _result(), wall_seconds=1.25)
    store.store_cell(_spec(cell_id="b"), _result(), wall_seconds=0.75)
    assert store.cell_timings("exp") == {"a": 1.25, "b": 0.75}


def test_figure_round_trip(tmp_path):
    store = ResultStore(tmp_path)
    figure = FigureResult("fig99", {"baseline": {"512": 1.5}}, "rendered")
    store.store_figure(figure)
    assert store.load_figure("fig99") == figure
    assert store.load_figure("fig-unknown") is None


def test_awkward_ids_get_sane_file_names(tmp_path):
    store = ResultStore(tmp_path)
    spec = _spec(experiment_id="fig05+fig11",
                 cell_id="balloon+base@512MiB")
    path = store.store_cell(spec, _result(), wall_seconds=0.1)
    assert path.is_file()
    assert store.has_cell(spec)
    figure = FigureResult("sec5.3", {}, "rendered")
    assert store.store_figure(figure).is_file()


# ----------------------------------------------------------------------
# integrity: checksums and quarantine
# ----------------------------------------------------------------------

def test_records_carry_a_verifiable_checksum(tmp_path):
    store = ResultStore(tmp_path)
    path = store.store_cell(_spec(), _result(), wall_seconds=0.5)
    record = json.loads(path.read_text())
    assert record["checksum"].startswith("sha256:")
    assert record["checksum"] == _payload_checksum(record)


def _quarantine_reasons(store: ResultStore) -> list[str]:
    return [entry["reason"] for entry in store.quarantined()]


def test_torn_record_is_quarantined_as_bad_json(tmp_path):
    store = ResultStore(tmp_path)
    spec = _spec()
    path = store.store_cell(spec, _result(), wall_seconds=0.1)
    path.write_text(path.read_text()[: len(path.read_text()) // 2])
    assert store.load_cell(spec) is None
    assert not path.exists()  # moved, not silently dropped
    assert _quarantine_reasons(store) == [QuarantineReason.BAD_JSON.value]
    [entry] = store.quarantined()
    assert entry["source"].startswith("cells/")
    assert entry["detail"]


def test_bit_rot_is_quarantined_as_checksum_mismatch(tmp_path):
    store = ResultStore(tmp_path)
    spec = _spec()
    path = store.store_cell(spec, _result(), wall_seconds=0.1)
    record = json.loads(path.read_text())
    record["wall_seconds"] = 99.0  # flip payload, keep old checksum
    path.write_text(json.dumps(record))
    assert store.load_cell(spec) is None
    assert _quarantine_reasons(store) == [
        QuarantineReason.CHECKSUM_MISMATCH.value]


def test_legacy_record_without_checksum_is_quarantined(tmp_path):
    store = ResultStore(tmp_path)
    spec = _spec()
    path = store.store_cell(spec, _result(), wall_seconds=0.1)
    record = json.loads(path.read_text())
    del record["checksum"]
    path.write_text(json.dumps(record))
    assert store.load_cell(spec) is None
    assert _quarantine_reasons(store) == [
        QuarantineReason.CHECKSUM_MISSING.value]


def test_non_object_json_is_quarantined_as_not_a_record(tmp_path):
    store = ResultStore(tmp_path)
    spec = _spec()
    path = store.store_cell(spec, _result(), wall_seconds=0.1)
    path.write_text("[1, 2, 3]\n")
    assert store.load_cell(spec) is None
    assert _quarantine_reasons(store) == [
        QuarantineReason.NOT_A_RECORD.value]


def test_undeserializable_result_is_quarantined_as_bad_record(tmp_path):
    store = ResultStore(tmp_path)
    spec = _spec()
    path = store.store_cell(spec, _result(), wall_seconds=0.1)
    record = json.loads(path.read_text())
    record["result"] = {"nonsense": True}
    record["checksum"] = _payload_checksum(record)  # checksum holds
    path.write_text(json.dumps(record))
    assert store.load_cell(spec) is None
    assert _quarantine_reasons(store) == [QuarantineReason.BAD_RECORD.value]


def test_verify_reports_and_optionally_quarantines(tmp_path):
    store = ResultStore(tmp_path)
    good = _spec(cell_id="good")
    bad = _spec(cell_id="bad")
    store.store_cell(good, _result(), wall_seconds=0.1)
    bad_path = store.store_cell(bad, _result(), wall_seconds=0.1)
    bad_path.write_text("{ torn")

    report = store.verify()  # read-only: reports, does not move
    assert not report.ok
    assert report.checked == 1
    assert [reason for _rel, reason, _detail in report.corrupt] == [
        QuarantineReason.BAD_JSON.value]
    assert bad_path.exists()
    assert "CORRUPT" in report.describe()

    report = store.verify(quarantine=True)
    assert not bad_path.exists()
    clean = store.verify()
    assert clean.ok and clean.checked == 1 and clean.quarantined == 1


def test_verify_strict_raises_typed_integrity_error(tmp_path):
    store = ResultStore(tmp_path)
    path = store.store_cell(_spec(), _result(), wall_seconds=0.1)
    path.write_text("{ torn")
    with pytest.raises(StoreIntegrityError):
        store.verify(strict=True)


def test_verify_on_open_quarantines_corrupt_records(tmp_path):
    spec = _spec()
    path = ResultStore(tmp_path).store_cell(spec, _result(), wall_seconds=0.1)
    path.write_text("{ torn")
    store = ResultStore(tmp_path, verify_on_open=True)
    assert not path.exists()
    assert _quarantine_reasons(store) == [QuarantineReason.BAD_JSON.value]


# ----------------------------------------------------------------------
# figures: constituent cell keys
# ----------------------------------------------------------------------

def test_figure_cell_keys_round_trip_order_insensitively(tmp_path):
    store = ResultStore(tmp_path)
    figure = FigureResult("fig99", {"baseline": {"512": 1.5}}, "rendered")
    keys = [cell_key(_spec(cell_id="b")), cell_key(_spec(cell_id="a"))]
    store.store_figure(figure, cell_keys=keys)
    assert store.load_figure("fig99", expected_cell_keys=keys) == figure
    assert store.load_figure(
        "fig99", expected_cell_keys=list(reversed(keys))) == figure
    # Without an expectation the figure still loads.
    assert store.load_figure("fig99") == figure


def test_figure_with_superseded_cells_is_a_miss(tmp_path):
    store = ResultStore(tmp_path)
    figure = FigureResult("fig99", {}, "rendered")
    store.store_figure(figure, cell_keys=[cell_key(_spec())])
    changed = [cell_key(_spec(scale=8))]
    assert store.load_figure("fig99", expected_cell_keys=changed) is None


def test_figure_stored_without_keys_never_matches_an_expectation(tmp_path):
    store = ResultStore(tmp_path)
    store.store_figure(FigureResult("fig99", {}, "rendered"))
    assert store.load_figure(
        "fig99", expected_cell_keys=[cell_key(_spec())]) is None


# ----------------------------------------------------------------------
# timings: live records shadow stale duplicates
# ----------------------------------------------------------------------

def _plant_stale_duplicate(store: ResultStore, spec: CellSpec,
                           wall: float) -> None:
    """A same-cell-id record under a superseded content hash, exactly as
    a schema bump leaves behind."""
    live = store.cell_path(spec)
    record = json.loads(live.read_text())
    record["key"] = "f" * 64  # no spec hashes to this any more
    record["wall_seconds"] = wall
    record["checksum"] = _payload_checksum(record)
    stale = live.with_name(
        live.name.replace(cell_key(spec)[:12], "feedfeedfeed"))
    stale.write_text(json.dumps(record))


def test_cell_timings_prefer_live_over_stale_duplicates(tmp_path):
    store = ResultStore(tmp_path)
    spec = _spec(cell_id="a")
    store.store_cell(spec, _result(), wall_seconds=1.25)
    # Glob order would visit the stale name first; the live key must
    # still win.
    _plant_stale_duplicate(store, spec, wall=77.0)
    assert store.cell_timings("exp") == {"a": 1.25}


def test_cell_timings_fall_back_to_stale_when_no_live_record(tmp_path):
    store = ResultStore(tmp_path)
    spec = _spec(cell_id="a")
    store.store_cell(spec, _result(), wall_seconds=1.25)
    _plant_stale_duplicate(store, spec, wall=77.0)
    store.cell_path(spec).unlink()
    assert store.cell_timings("exp") == {"a": 77.0}


def test_gc_removes_shadowed_stale_duplicates_only(tmp_path):
    store = ResultStore(tmp_path)
    shadowed = _spec(cell_id="a")
    orphaned = _spec(cell_id="b")
    store.store_cell(shadowed, _result(), wall_seconds=1.0)
    store.store_cell(orphaned, _result(), wall_seconds=2.0)
    _plant_stale_duplicate(store, shadowed, wall=77.0)
    _plant_stale_duplicate(store, orphaned, wall=88.0)
    store.cell_path(orphaned).unlink()  # b's only record is now stale

    report = store.gc()
    assert report.stale_removed == 1  # a's duplicate; b's sole record stays
    assert store.cell_timings("exp") == {"a": 1.0, "b": 88.0}


def test_compact_leaves_one_record_per_live_key(tmp_path):
    store = ResultStore(tmp_path)
    spec = _spec(cell_id="a")
    store.store_cell(spec, _result(), wall_seconds=1.0)
    _plant_stale_duplicate(store, spec, wall=77.0)
    torn = store.store_cell(_spec(cell_id="torn"), _result(),
                            wall_seconds=0.1)
    torn.write_text("{ torn")
    store.load_cell(_spec(cell_id="torn"))  # quarantines it
    store.store_figure(FigureResult("fig99", {}, "rendered"),
                       cell_keys=[cell_key(spec)])

    report = store.compact()
    assert report.kept == 2  # the live cell + the figure
    assert report.dropped == 1  # the stale duplicate
    assert report.quarantine_dropped == 2  # record + why sidecar
    assert not store.quarantine_dir.exists()
    assert store.load_cell(spec) == _result()
    assert store.verify().ok


# ----------------------------------------------------------------------
# locking
# ----------------------------------------------------------------------

def test_contended_record_lock_raises_typed_error(tmp_path, monkeypatch):
    fcntl = pytest.importorskip("fcntl")
    monkeypatch.setattr(store_module, "LOCK_TIMEOUT", 0.05)
    monkeypatch.setattr(store_module, "LOCK_BACKOFF_BASE", 0.001)
    store = ResultStore(tmp_path)
    spec = _spec()
    lock_path = store._record_lock_path(cell_key(spec)[:12])
    lock_path.parent.mkdir(parents=True, exist_ok=True)
    with lock_path.open("a+") as holder:
        # flock is per open file description, so this fd conflicts with
        # the store's own acquisition attempt even in-process.
        fcntl.flock(holder, fcntl.LOCK_EX)
        with pytest.raises(StoreContentionError):
            store.store_cell(spec, _result(), wall_seconds=0.1)
    # Released: the very same write now goes through.
    store.store_cell(spec, _result(), wall_seconds=0.1)
    assert store.has_cell(spec)


def test_lock_backoff_is_capped_exponential():
    waits = [capped_backoff(attempt, store_module.LOCK_BACKOFF_BASE,
                            store_module.LOCK_BACKOFF_FACTOR,
                            store_module.LOCK_BACKOFF_CAP)
             for attempt in range(1, 10)]
    assert waits == [0.002, 0.004, 0.008, 0.016, 0.032, 0.064, 0.128,
                     0.25, 0.25]


def test_gc_sweeps_tmp_orphans_older_than_the_last_write(tmp_path):
    store = ResultStore(tmp_path)
    spec = _spec(cell_id="a")
    store.store_cell(spec, _result(), wall_seconds=0.1)
    orphan = (tmp_path / "cells" / "exp"
              / ".a-deadbeef.1234-0-abcdef01-cafe.tmp")
    orphan.write_text("{ interrupted")
    assert store.verify().tmp_orphans == 1
    # No write since the orphan appeared: gc must keep it (it could be a
    # write still in flight).
    assert store.gc().tmp_removed == 0
    assert orphan.exists()
    # A later write moves the last-writer stamp past it; now it is junk.
    store.store_cell(_spec(cell_id="b"), _result(), wall_seconds=0.1)
    assert store.gc().tmp_removed == 1
    assert not orphan.exists()
