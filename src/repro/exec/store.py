"""Content-addressed, crash-safe persistence for cells and figures.

Every executed cell is keyed by a SHA-256 hash of its canonical
:class:`~repro.exec.spec.CellSpec` JSON plus the code-schema versions
(spec and result).  The key therefore changes whenever *anything* that
could change the simulation outcome changes -- parameters, scale, seed,
fault plan, or the serialization schema itself -- so a cache hit is
always safe to reuse and ``--resume`` can skip it without re-running.

Layout under the store root::

    cells/<experiment>/<cell-id>-<hash12>.json   one record per cell
    figures/<figure-id>.json                     assembled figures
    quarantine/<original relative path>          records that failed
        ...<name>.json.why.json                  verification, + reason
    locks/store.lock                             store-wide flock file
    locks/record-<key12>.lock                    per-record flock files
    locks/strike-ledger.log                      store-fault strikes

The store is safe to share between processes:

* **Integrity.**  Every record carries a SHA-256 checksum of its own
  payload, written with it and verified on every read.  A record that
  fails verification (torn write, bit rot, legacy format) is
  *quarantined* -- moved under ``quarantine/`` next to a typed
  ``.why.json`` reason -- and reads as a cache miss, so a later audit
  can distinguish "never ran" from "ran but rotted".
* **Atomicity + durability.**  Writes go tmp-file -> fsync -> rename.
  Tmp names are unique per (pid, per-process counter, record key,
  random token), so PID reuse can never collide, and a writer that
  dies before the rename leaves only an orphan ``*.tmp`` file that
  ``gc`` sweeps once it is older than the last-writer stamp (the
  mtime of ``locks/store.lock``, touched by every write).
* **Concurrency.**  Writers take the store lock *shared* then their
  record lock *exclusive* (``fcntl.flock``), always in that order;
  global operations (``gc``/``compact``) take the store lock exclusive
  and therefore exclude all writers.  Acquisition retries with capped
  exponential backoff -- the same discipline the cell supervisor
  applies to workers -- and raises a typed
  :class:`~repro.errors.StoreContentionError` past the deadline.
  Readers are lock-free: rename atomicity plus checksums mean a read
  sees a complete old record, a complete new record, or quarantines.
* **Crash injection.**  An optional seeded
  :class:`~repro.faults.plan.StoreFaultConfig` arms deterministic
  crash points in the write path (abort before rename, abort after
  rename, torn record, lock stall); every strike is recorded in an
  on-disk ledger first, so a crash-then-resume loop converges instead
  of re-killing the same record forever.

Cell records carry the spec (for humans and audits), the result, and
the wall-clock seconds the cell took -- which is how the benchmark
suite reads per-cell timings back instead of re-deriving them.
Figure records additionally carry the sorted content keys of their
constituent cells, so a figure assembled from superseded cells is
served as a miss instead of stale data.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
import json
import os
import re
import secrets
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

try:  # POSIX advisory locking; absent only on non-POSIX platforms.
    import fcntl
except ImportError:  # pragma: no cover - exercised on Windows only
    fcntl = None  # type: ignore[assignment]

from repro.errors import (
    ConfigError,
    StoreContentionError,
    StoreIntegrityError,
)
from repro.exec.spec import SPEC_SCHEMA_VERSION, CellSpec
from repro.experiments.runner import (
    RESULT_SCHEMA_VERSION,
    FigureResult,
    RunResult,
)
from repro.faults.plan import (
    StoreFaultConfig,
    StoreFaultPoint,
    capped_backoff,
    should_strike_store,
)

#: Characters allowed verbatim in store file names; anything else is
#: replaced (figure ids like ``sec5.3`` and ``fig05+fig11`` survive).
_SAFE = re.compile(r"[^A-Za-z0-9._+@-]")

#: Exit code of a process killed by an injected store crash point
#: (diagnosable in CI logs; recovery treats any death the same way).
STORE_CRASH_EXIT = 47

#: Per-process tmp-name counter (with pid + random token, makes tmp
#: names unique even under PID reuse).
_TMP_COUNTER = itertools.count()


def _sanitize(name: str) -> str:
    return _SAFE.sub("_", name) or "_"


def cell_key(spec: CellSpec) -> str:
    """Content hash identifying one cell's result in the store."""
    preimage = (f"spec-schema={SPEC_SCHEMA_VERSION};"
                f"result-schema={RESULT_SCHEMA_VERSION};"
                f"{spec.canonical_json()}")
    return hashlib.sha256(preimage.encode()).hexdigest()


def figure_key(figure_id: str) -> str:
    """Lock/fault-draw key identifying one figure record."""
    return hashlib.sha256(
        f"figure:{_sanitize(figure_id)}".encode()).hexdigest()


# ----------------------------------------------------------------------
# integrity
# ----------------------------------------------------------------------

def _payload_checksum(record: dict) -> str:
    """Checksum over the record's canonical JSON, checksum field aside."""
    body = {k: v for k, v in record.items() if k != "checksum"}
    canon = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canon.encode()).hexdigest()


class QuarantineReason(enum.Enum):
    """Why a record was quarantined instead of read."""

    #: The file is not parseable JSON (torn write, truncation).
    BAD_JSON = "bad-json"
    #: The file parses but is not a JSON object.
    NOT_A_RECORD = "not-a-record"
    #: The record carries no checksum (legacy/foreign format).
    CHECKSUM_MISSING = "checksum-missing"
    #: The stored checksum disagrees with the payload (bit rot).
    CHECKSUM_MISMATCH = "checksum-mismatch"
    #: The checksum holds but the payload does not deserialize.
    BAD_RECORD = "bad-record"


def _verify_text(text: str) -> tuple[dict | None, QuarantineReason | None,
                                     str | None]:
    """``(record, None, None)`` or ``(None, reason, detail)``."""
    try:
        record = json.loads(text)
    except ValueError as error:
        return None, QuarantineReason.BAD_JSON, str(error)
    if not isinstance(record, dict):
        return (None, QuarantineReason.NOT_A_RECORD,
                f"top-level JSON value is {type(record).__name__}")
    stored = record.get("checksum")
    if stored is None:
        return (None, QuarantineReason.CHECKSUM_MISSING,
                "record carries no payload checksum")
    computed = _payload_checksum(record)
    if stored != computed:
        return (None, QuarantineReason.CHECKSUM_MISMATCH,
                f"stored {stored} != computed {computed}")
    return record, None, None


# ----------------------------------------------------------------------
# locking
# ----------------------------------------------------------------------

#: Lock acquisition gives up (StoreContentionError) after contending
#: this many seconds...
LOCK_TIMEOUT = 30.0
#: ...retrying after LOCK_BACKOFF_BASE seconds, each further wait
#: LOCK_BACKOFF_FACTOR times longer and never more than LOCK_BACKOFF_CAP,
#: so probing stays responsive under churn.
LOCK_BACKOFF_BASE = 0.002
LOCK_BACKOFF_FACTOR = 2.0
LOCK_BACKOFF_CAP = 0.25


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------

@dataclass
class StoreVerifyReport:
    """What a verification walk of the whole store found."""

    #: Live records whose checksum was checked.
    checked: int = 0
    #: ``(relative path, reason value, detail)`` per integrity failure.
    corrupt: list[tuple[str, str, str]] = field(default_factory=list)
    #: Intact cell records whose stored key no longer matches their own
    #: spec under the current schema (superseded; ``gc``/``compact``
    #: food, not corruption).
    stale: int = 0
    #: Records sitting in ``quarantine/`` with a typed reason.
    quarantined: int = 0
    #: Orphaned ``*.tmp`` files from interrupted writes.
    tmp_orphans: int = 0

    @property
    def ok(self) -> bool:
        """Whether every live record passed verification."""
        return not self.corrupt

    def describe(self) -> str:
        """One-line human form for CLI summaries."""
        status = "ok" if self.ok else "CORRUPT"
        return (f"store {status}: {self.checked} records verified, "
                f"{len(self.corrupt)} corrupt, {self.stale} stale, "
                f"{self.quarantined} quarantined, "
                f"{self.tmp_orphans} tmp orphan(s)")


@dataclass
class StoreGcReport:
    """What a garbage-collection pass removed."""

    tmp_removed: int = 0
    stale_removed: int = 0

    def describe(self) -> str:
        """One-line human form for CLI summaries."""
        return (f"store gc: {self.tmp_removed} tmp orphan(s) and "
                f"{self.stale_removed} stale duplicate(s) removed")


@dataclass
class StoreCompactReport:
    """What a compaction pass kept and dropped."""

    #: Live records rewritten in normalized form.
    kept: int = 0
    #: Corrupt/stale records and tmp orphans deleted.
    dropped: int = 0
    #: Quarantined records (and their reasons) deleted.
    quarantine_dropped: int = 0

    def describe(self) -> str:
        """One-line human form for CLI summaries."""
        return (f"store compact: {self.kept} live record(s) rewritten, "
                f"{self.dropped} dropped, "
                f"{self.quarantine_dropped} quarantined file(s) purged")


# ----------------------------------------------------------------------
# fault injection
# ----------------------------------------------------------------------

class _StoreFaultInjector:
    """Applies a :class:`StoreFaultConfig` to the write path.

    Strikes are gated by an append-only ledger inside the store
    (``locks/strike-ledger.log``): each strike is recorded *before* it
    lands, so a crash-then-resume loop sees the spent strike and
    recovery converges.  The ledger is shared by every process using
    the store (O_APPEND keeps concurrent appends whole).
    """

    def __init__(self, config: StoreFaultConfig, ledger: Path) -> None:
        config.validate()
        self.config = config
        self.ledger = ledger

    def _strikes(self, point: StoreFaultPoint, key: str) -> int:
        try:
            text = self.ledger.read_text()
        except OSError:
            return 0
        return text.count(f"{point.value}\t{key}\n")

    def _record_strike(self, point: StoreFaultPoint, key: str) -> None:
        self.ledger.parent.mkdir(parents=True, exist_ok=True)
        with self.ledger.open("a") as handle:
            handle.write(f"{point.value}\t{key}\n")
            handle.flush()
            os.fsync(handle.fileno())

    def _strike(self, point: StoreFaultPoint, key: str) -> bool:
        if not should_strike_store(self.config, point, key,
                                   self._strikes(point, key)):
            return False
        self._record_strike(point, key)
        return True

    def crash_point(self, point: StoreFaultPoint, key: str) -> None:
        """Die hard (as SIGKILL would) if this crash point strikes."""
        if self._strike(point, key):
            os._exit(STORE_CRASH_EXIT)

    def maybe_tear(self, key: str, data: str) -> str:
        """The (possibly truncated) bytes this record lands with."""
        if self._strike(StoreFaultPoint.TORN_WRITE, key):
            return data[:max(1, len(data) // 2)]
        return data

    def stall_seconds(self, key: str) -> float:
        """How long to stall while holding this record's write lock."""
        if self._strike(StoreFaultPoint.LOCK_STALL, key):
            return self.config.lock_stall_seconds
        return 0.0


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------

class ResultStore:
    """Filesystem-backed store of cell results and assembled figures.

    Safe for concurrent use by multiple processes; see the module
    docstring for the integrity/locking protocol.  ``faults`` arms the
    seeded crash-injection points, and ``verify_on_open=True`` runs a
    fast verification pass at construction (quarantining any corrupt
    record), which is how executor startup audits a store before
    trusting ``--resume``.
    """

    def __init__(self, root: str | Path, *,
                 faults: StoreFaultConfig | None = None,
                 verify_on_open: bool = False) -> None:
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise ConfigError(
                f"results dir {self.root} exists and is not a directory")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise ConfigError(
                f"cannot create results dir {self.root}: {error}"
            ) from error
        self._injector = None
        if faults is not None and faults.enabled:
            self._injector = _StoreFaultInjector(
                faults, self._locks_dir / "strike-ledger.log")
        if verify_on_open:
            self.verify(quarantine=True)

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------

    @property
    def _locks_dir(self) -> Path:
        return self.root / "locks"

    @property
    def _store_lock_path(self) -> Path:
        return self._locks_dir / "store.lock"

    @property
    def quarantine_dir(self) -> Path:
        """Where records that failed verification are moved."""
        return self.root / "quarantine"

    def _record_lock_path(self, lock_key: str) -> Path:
        return self._locks_dir / f"record-{lock_key}.lock"

    def cell_path(self, spec: CellSpec) -> Path:
        """Where ``spec``'s record lives (whether or not it exists)."""
        return (self.root / "cells" / _sanitize(spec.experiment_id)
                / f"{_sanitize(spec.cell_id)}-{cell_key(spec)[:12]}.json")

    def figure_path(self, figure_id: str) -> Path:
        """Where the assembled figure JSON lives."""
        return self.root / "figures" / f"{_sanitize(figure_id)}.json"

    def _lock_key_for(self, path: Path) -> str:
        """The record-lock key guarding ``path``, derived from its name
        (so quarantine moves serialize with the record's writers)."""
        rel = path.relative_to(self.root)
        if rel.parts and rel.parts[0] == "cells" and "-" in path.stem:
            tail = path.stem.rsplit("-", 1)[1]
            if len(tail) == 12 and all(c in "0123456789abcdef"
                                       for c in tail):
                return tail
        if rel.parts and rel.parts[0] == "figures":
            return figure_key(path.stem)[:12]
        return hashlib.sha256(str(rel).encode()).hexdigest()[:12]

    # ------------------------------------------------------------------
    # locking
    # ------------------------------------------------------------------

    @contextmanager
    def _flock(self, path: Path, *, exclusive: bool, what: str):
        """Hold one flock file, retrying with capped backoff.

        Degrades to a plain open (no locking) on platforms without
        :mod:`fcntl`; rename atomicity still protects readers there.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = path.open("a+")
        try:
            if fcntl is not None:
                flags = (fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
                deadline = time.monotonic() + LOCK_TIMEOUT
                attempt = 0
                while True:
                    try:
                        fcntl.flock(handle, flags | fcntl.LOCK_NB)
                        break
                    except OSError:
                        attempt += 1
                        now = time.monotonic()
                        if now >= deadline:
                            raise StoreContentionError(
                                f"{what}: lock {path.name} still "
                                f"contended after "
                                f"{LOCK_TIMEOUT}s "
                                f"({attempt} attempts)") from None
                        time.sleep(min(
                            capped_backoff(attempt, LOCK_BACKOFF_BASE,
                                           LOCK_BACKOFF_FACTOR,
                                           LOCK_BACKOFF_CAP),
                            deadline - now))
            yield handle
        finally:
            if fcntl is not None:
                try:
                    fcntl.flock(handle, fcntl.LOCK_UN)
                except OSError:  # pragma: no cover - lock never held
                    pass
            handle.close()

    @contextmanager
    def _write_lock(self, lock_key: str, fault_key: str | None = None):
        """Store-shared + record-exclusive locks, in that (fixed) order.

        The ordering is what makes ``gc``/``compact`` (store-exclusive)
        exclude every writer without a per-record handshake, and taking
        the record lock second means two writers of *different* records
        never serialize on each other.
        """
        with self._flock(self._store_lock_path, exclusive=False,
                         what="store write"):
            with self._flock(self._record_lock_path(lock_key),
                             exclusive=True, what="record write"):
                self._stamp_last_writer()
                if self._injector is not None and fault_key is not None:
                    stall = self._injector.stall_seconds(fault_key)
                    if stall > 0:
                        time.sleep(stall)
                yield

    def _stamp_last_writer(self) -> None:
        """Touch the store lock: the last-writer stamp ``gc`` compares
        tmp-orphan ages against."""
        try:
            os.utime(self._store_lock_path)
        except OSError:  # pragma: no cover - lock file just created
            pass

    def last_writer_stamp(self) -> float | None:
        """Mtime of the store lock file (None before any write)."""
        try:
            return self._store_lock_path.stat().st_mtime
        except OSError:
            return None

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    def _write_record(self, path: Path, record: dict, fault_key: str,
                      *, inject: bool = True) -> None:
        """Checksum, write-tmp, fsync, rename -- with optional injected
        crash points.  Callers hold the record's write lock (or the
        store-exclusive lock, for repair ops)."""
        record = dict(record)
        record["checksum"] = _payload_checksum(record)
        data = json.dumps(record, indent=1, sort_keys=True) + "\n"
        injector = self._injector if inject else None
        if injector is not None:
            data = injector.maybe_tear(fault_key, data)
        path.parent.mkdir(parents=True, exist_ok=True)
        token = (f"{os.getpid():x}-{next(_TMP_COUNTER):x}"
                 f"-{fault_key[:8]}-{secrets.token_hex(4)}")
        tmp = path.parent / f".{path.stem}.{token}.tmp"
        with tmp.open("w") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        if injector is not None:
            injector.crash_point(StoreFaultPoint.BEFORE_RENAME, fault_key)
        os.replace(tmp, path)
        if injector is not None:
            injector.crash_point(StoreFaultPoint.AFTER_RENAME, fault_key)
        self._stamp_last_writer()

    # ------------------------------------------------------------------
    # read path + quarantine
    # ------------------------------------------------------------------

    def _load_verified(self, path: Path) -> tuple[
            str | None, dict | None, QuarantineReason | None, str | None]:
        """``(text, record, reason, detail)`` for the file at ``path``
        (text is None only when the file is missing/unreadable)."""
        try:
            text = path.read_text()
        except OSError:
            return None, None, None, None
        record, reason, detail = _verify_text(text)
        return text, record, reason, detail

    def _read_record(self, path: Path, *, quarantine: bool = True
                     ) -> dict | None:
        """The verified record at ``path``, or None.

        A missing file is a plain miss.  A present-but-unverifiable
        file is quarantined (unless ``quarantine=False``) and then
        reads as a miss too -- never as an error.
        """
        text, record, reason, detail = self._load_verified(path)
        if record is not None:
            return record
        if text is not None and quarantine:
            self._quarantine(path, reason, detail, expect_text=text)
        return None

    def _quarantine(self, path: Path, reason: QuarantineReason,
                    detail: str | None, *, expect_text: str) -> None:
        """Move an unverifiable record under ``quarantine/`` with a
        typed ``.why.json`` sidecar explaining the drop.

        Serializes with the record's writers (same lock) and re-reads
        under the lock: if the file no longer holds the bytes we judged
        (``expect_text``) *and* what is there now verifies, a writer
        beat us with a healthy record and nothing moves.  Repeated
        quarantines of the same path keep the latest offender.
        """
        with self._write_lock(self._lock_key_for(path)):
            try:
                text = path.read_text()
            except OSError:
                return  # already replaced or removed
            if text != expect_text:
                record, live_reason, live_detail = _verify_text(text)
                if record is not None:
                    return  # healed under our feet: a writer beat us
                reason, detail = live_reason, live_detail
            rel = path.relative_to(self.root)
            dest = self.quarantine_dir / rel
            dest.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest)
            why = {
                "reason": reason.value,
                "detail": detail or "",
                "source": str(rel),
                "quarantined_at": time.time(),
            }
            dest.with_name(dest.name + ".why.json").write_text(
                json.dumps(why, indent=1, sort_keys=True) + "\n")

    def quarantined(self) -> list[dict]:
        """Typed reasons for every quarantined record, oldest path
        first: ``{reason, detail, source, quarantined_at}`` dicts."""
        reasons = []
        if not self.quarantine_dir.is_dir():
            return reasons
        for sidecar in sorted(self.quarantine_dir.rglob("*.why.json")):
            try:
                reasons.append(json.loads(sidecar.read_text()))
            except (OSError, ValueError):  # pragma: no cover - racy fs
                continue
        return reasons

    # ------------------------------------------------------------------
    # cells
    # ------------------------------------------------------------------

    def store_cell(self, spec: CellSpec, result: RunResult,
                   wall_seconds: float) -> Path:
        """Persist one executed cell (atomic, locked, checksummed)."""
        key = cell_key(spec)
        record = {
            "key": key,
            "spec": spec.to_dict(),
            "wall_seconds": wall_seconds,
            "result": result.to_dict(),
        }
        path = self.cell_path(spec)
        with self._write_lock(key[:12], key):
            self._write_record(path, record, key)
        return path

    def load_cell_entry(self, spec: CellSpec
                        ) -> tuple[RunResult, float] | None:
        """The cached ``(result, wall_seconds)`` for ``spec``, or None.

        Missing and superseded (stale-key) records are plain misses;
        corrupt or undecodable records are quarantined with a typed
        reason first, then read as misses -- never as errors.  The
        recorded wall time is what the cell cost when it originally
        executed; resume summaries report it so cache hits do not read
        as free.
        """
        path = self.cell_path(spec)
        text, record, reason, detail = self._load_verified(path)
        if record is None:
            if text is not None:
                self._quarantine(path, reason, detail, expect_text=text)
            return None
        if record.get("key") != cell_key(spec):
            return None
        try:
            result = RunResult.from_dict(record["result"])
        except Exception as error:
            self._quarantine(path, QuarantineReason.BAD_RECORD,
                             f"result does not deserialize: {error}",
                             expect_text=text)
            return None
        wall = record.get("wall_seconds", 0.0)
        if not isinstance(wall, (int, float)):
            wall = 0.0
        return result, float(wall)

    def load_cell(self, spec: CellSpec) -> RunResult | None:
        """The cached result for ``spec``, or None on any cache miss."""
        entry = self.load_cell_entry(spec)
        return None if entry is None else entry[0]

    def has_cell(self, spec: CellSpec) -> bool:
        """Whether ``spec`` would be a cache hit."""
        return self.load_cell(spec) is not None

    def _record_is_live(self, record: dict) -> bool:
        """Whether the record's stored key matches its own spec under
        the *current* schema versions (False = superseded)."""
        try:
            spec = CellSpec.from_dict(record.get("spec") or {})
        except Exception:
            return False
        return cell_key(spec) == record.get("key")

    def cell_records(self, experiment_id: str | None = None
                     ) -> Iterator[dict]:
        """All verified cell records, optionally for one experiment."""
        for _path, record in self._cell_record_files(experiment_id):
            yield record

    def _cell_record_files(self, experiment_id: str | None = None,
                           *, quarantine: bool = True
                           ) -> Iterator[tuple[Path, dict]]:
        base = self.root / "cells"
        if experiment_id is not None:
            dirs = [base / _sanitize(experiment_id)]
        else:
            dirs = sorted(base.iterdir()) if base.is_dir() else []
        for directory in dirs:
            if not directory.is_dir():
                continue
            for path in sorted(directory.glob("*.json")):
                record = self._read_record(path, quarantine=quarantine)
                if record is not None:
                    yield path, record

    def cell_timings(self, experiment_id: str) -> dict[str, float]:
        """Recorded wall seconds per cell id for one experiment.

        When a cell id has both a live record and stale-hash leftovers
        from an earlier schema, the live record's timing wins (glob
        order never decides); stale timings fill in only for cells with
        no live record at all.
        """
        timings: dict[str, float] = {}
        stale: dict[str, float] = {}
        for record in self.cell_records(experiment_id):
            spec = record.get("spec") or {}
            cell_id = spec.get("cell_id")
            if cell_id is None:
                continue
            wall = record.get("wall_seconds", 0.0)
            if self._record_is_live(record):
                timings[cell_id] = wall
            else:
                stale.setdefault(cell_id, wall)
        for cell_id, wall in stale.items():
            timings.setdefault(cell_id, wall)
        return timings

    # ------------------------------------------------------------------
    # figures
    # ------------------------------------------------------------------

    def store_figure(self, figure: FigureResult,
                     cell_keys: list[str] | None = None) -> Path:
        """Persist one assembled figure.

        ``cell_keys`` (the content keys of the cells it was assembled
        from) stamp the record so :meth:`load_figure` can refuse a
        figure whose constituents have since changed.
        """
        key = figure_key(figure.figure_id)
        record = {
            "figure": figure.to_dict(),
            "cell_keys": sorted(cell_keys) if cell_keys is not None
            else None,
        }
        path = self.figure_path(figure.figure_id)
        with self._write_lock(key[:12], key):
            self._write_record(path, record, key)
        return path

    def load_figure(self, figure_id: str,
                    expected_cell_keys: list[str] | None = None
                    ) -> FigureResult | None:
        """A previously assembled figure, or None.

        With ``expected_cell_keys`` the stored constituent keys must
        match exactly (order-insensitively); any mismatch -- including
        a figure stored without keys -- is a miss, so a figure built
        from superseded cells is never served as current.
        """
        path = self.figure_path(figure_id)
        text, record, reason, detail = self._load_verified(path)
        if record is None:
            if text is not None:
                self._quarantine(path, reason, detail, expect_text=text)
            return None
        try:
            figure = FigureResult.from_dict(record["figure"])
        except Exception as error:
            self._quarantine(path, QuarantineReason.BAD_RECORD,
                             f"figure does not deserialize: {error}",
                             expect_text=text)
            return None
        if expected_cell_keys is not None:
            if record.get("cell_keys") != sorted(expected_cell_keys):
                return None
        return figure

    # ------------------------------------------------------------------
    # repair tooling: verify / gc / compact
    # ------------------------------------------------------------------

    def _record_files(self) -> Iterator[Path]:
        """Every live record file (cells then figures), sorted."""
        cells = self.root / "cells"
        if cells.is_dir():
            for directory in sorted(p for p in cells.iterdir()
                                    if p.is_dir()):
                yield from sorted(directory.glob("*.json"))
        figures = self.root / "figures"
        if figures.is_dir():
            yield from sorted(figures.glob("*.json"))

    def _tmp_orphans(self) -> list[Path]:
        orphans = []
        for base in (self.root / "cells", self.root / "figures"):
            if base.is_dir():
                orphans.extend(sorted(base.rglob("*.tmp")))
        return orphans

    def verify(self, *, quarantine: bool = False,
               strict: bool = False) -> StoreVerifyReport:
        """Walk every record and verify its integrity.

        Read-only by default; ``quarantine=True`` moves failures to
        ``quarantine/`` as a read would.  ``strict=True`` raises
        :class:`~repro.errors.StoreIntegrityError` on the first failure
        instead of reporting.  Stale (superseded) records and tmp
        orphans are counted informationally -- they are ``gc``'s job,
        not integrity failures.
        """
        report = StoreVerifyReport()
        for path in self._record_files():
            try:
                text = path.read_text()
            except OSError:
                continue
            record, reason, detail = _verify_text(text)
            rel = str(path.relative_to(self.root))
            if record is None:
                if strict:
                    raise StoreIntegrityError(
                        f"{rel}: {reason.value}: {detail}")
                report.corrupt.append((rel, reason.value, detail or ""))
                if quarantine:
                    self._quarantine(path, reason, detail, expect_text=text)
                continue
            report.checked += 1
            if rel.startswith("cells") and not self._record_is_live(record):
                report.stale += 1
        report.quarantined = len(self.quarantined())
        report.tmp_orphans = len(self._tmp_orphans())
        return report

    def gc(self) -> StoreGcReport:
        """Sweep write debris: orphaned tmp files no newer than the
        last-writer stamp, and stale-hash duplicates shadowed by a live
        record for the same cell id.  Takes the store lock exclusively,
        so no writer is in flight while it decides what is garbage.
        """
        report = StoreGcReport()
        with self._flock(self._store_lock_path, exclusive=True,
                         what="store gc"):
            stamp = self.last_writer_stamp()
            for tmp in self._tmp_orphans():
                try:
                    if stamp is not None and tmp.stat().st_mtime <= stamp:
                        tmp.unlink()
                        report.tmp_removed += 1
                except OSError:  # pragma: no cover - racy fs
                    continue
            groups: dict[tuple[str, str], list[tuple[Path, bool]]] = {}
            for path, record in self._cell_record_files(quarantine=False):
                spec = record.get("spec") or {}
                cell_id = spec.get("cell_id")
                if cell_id is None:
                    continue
                group = (path.parent.name, cell_id)
                groups.setdefault(group, []).append(
                    (path, self._record_is_live(record)))
            for members in groups.values():
                if not any(live for _path, live in members):
                    continue
                for path, live in members:
                    if not live:
                        path.unlink(missing_ok=True)
                        report.stale_removed += 1
        return report

    def compact(self) -> StoreCompactReport:
        """Rewrite the store to exactly one normalized record per live
        key: live records are re-serialized (fresh checksum, current
        format), everything else -- stale records, corrupt files, tmp
        orphans, the quarantine directory -- is dropped.
        """
        import shutil

        report = StoreCompactReport()
        with self._flock(self._store_lock_path, exclusive=True,
                         what="store compact"):
            for tmp in self._tmp_orphans():
                tmp.unlink(missing_ok=True)
                report.dropped += 1
            for path in list(self._record_files()):
                try:
                    text = path.read_text()
                except OSError:
                    continue
                record, _reason, _detail = _verify_text(text)
                is_cell = path.relative_to(self.root).parts[0] == "cells"
                keep = record is not None and (
                    not is_cell or self._record_is_live(record))
                if not keep:
                    path.unlink(missing_ok=True)
                    report.dropped += 1
                    continue
                self._write_record(path, record,
                                   self._lock_key_for(path), inject=False)
                report.kept += 1
            if self.quarantine_dir.is_dir():
                report.quarantine_dropped = sum(
                    1 for p in self.quarantine_dir.rglob("*")
                    if p.is_file())
                shutil.rmtree(self.quarantine_dir)
        return report
