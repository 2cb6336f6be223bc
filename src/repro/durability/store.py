"""The durable store: a locked directory of checkpoint + WAL + manifest.

Layout of a database directory::

    LOCK                 flock'd exclusively for the store's lifetime
    MANIFEST             json: {"version", "generation", "checkpoint"}
    checkpoint-<G>.ckpt  the checkpoint the manifest points at
    wal.log              commits past the manifest's generation

The checkpoint protocol is ordered so that a crash at *any* step
recovers to a consistent state:

====  ==========================  ==================================
step  action                      crash here leaves
====  ==========================  ==================================
1     write ``checkpoint-<G>      the old checkpoint + full WAL
      .ckpt.tmp``, fsync          (tmp ignored and removed on open)
2     rename tmp into place       new checkpoint unreferenced; the
                                  old manifest + full WAL still win
3     rewrite MANIFEST            new checkpoint live; stale WAL
      (tmp + rename)              records ≤ G are skipped by their
                                  generation tags on replay
4     reset ``wal.log``           clean steady state
      (tmp + rename)
5     unlink superseded           a stale ``checkpoint-*.ckpt``
      checkpoints                 (unreferenced; removed on open)
====  ==========================  ==================================

Recovery on open is therefore: read the manifest, mmap its
checkpoint, scan the WAL (truncating a torn/corrupt tail), and replay
records *strictly past* the checkpoint generation through the IVM
coordinator.  Every scanned record is accounted for in the
:class:`RecoveryReport` — replayed, skipped (stale), or truncated.

:class:`DurableCoordinator` is the synchronous glue the serving layer
(and the fuzzer/benchmarks) drive: it wraps a
:class:`~repro.ivm.maintain.MaterializedProgram` so every committed
batch is WAL-logged *before* it is applied, checkpoints periodically
and on clean close, and registers an ``atexit`` backstop so an
abandoned coordinator still flushes its log and releases its lock.
"""

from __future__ import annotations

import atexit
import fcntl
import json
import os
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Union

from repro.datalog.programs import Program
from repro.durability.checkpoint import Checkpoint, write_checkpoint
from repro.durability.wal import DurableLog, WalScan
from repro.engine.faults import CrashPlan, SimulatedCrash
from repro.engine.parallel import EvalConfig
from repro.engine.statistics import HealthReport
from repro.exceptions import EvaluationError, StorageError
from repro.ivm.maintain import ChangeSet, MaterializedProgram
from repro.storage.database import Database
from repro.storage.relation import Row

LOCK_FILE = "LOCK"
MANIFEST_FILE = "MANIFEST"
WAL_FILE = "wal.log"
_CHECKPOINT_PREFIX = "checkpoint-"
_CHECKPOINT_SUFFIX = ".ckpt"


@dataclass
class RecoveryReport:
    """Accounting of one open: every WAL record's fate, plus the damage.

    ``records_replayed + records_skipped + records_truncated`` covers
    every record the WAL scan encountered: *replayed* records (past the
    checkpoint generation) were re-applied to the recovered state,
    *skipped* records were already folded into the checkpoint (a crash
    between manifest swap and WAL reset leaves them behind), and
    *truncated* records were torn or corrupt tails cut during the scan.
    ``clean`` means nothing needed doing — the previous process closed
    properly.
    """

    checkpoint_generation: int = 0
    recovered_generation: int = 0
    records_replayed: int = 0
    records_skipped: int = 0
    records_truncated: int = 0
    bytes_truncated: int = 0
    torn_tail: bool = False
    corrupt_tail: bool = False
    #: Leftover ``*.tmp`` files removed on open (crash mid-checkpoint).
    stale_files_removed: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not (self.records_replayed or self.records_skipped
                    or self.records_truncated or self.stale_files_removed)

    def as_dict(self) -> dict[str, object]:
        """Flat dictionary (for reports and CI artifacts)."""
        return {
            "checkpoint_generation": self.checkpoint_generation,
            "recovered_generation": self.recovered_generation,
            "records_replayed": self.records_replayed,
            "records_skipped": self.records_skipped,
            "records_truncated": self.records_truncated,
            "bytes_truncated": self.bytes_truncated,
            "torn_tail": self.torn_tail,
            "corrupt_tail": self.corrupt_tail,
            "stale_files_removed": list(self.stale_files_removed),
            "clean": self.clean,
        }


class DurableStore:
    """One locked database directory: manifest, checkpoint, WAL.

    Opening acquires an exclusive ``flock`` on ``LOCK`` (a second open
    of the same directory — same or another process — fails fast with
    :class:`~repro.exceptions.StorageError`), sweeps ``*.tmp`` debris
    from crashed checkpoint attempts, loads the manifest if one exists,
    and opens the WAL (scanning and truncating its tail).
    """

    def __init__(self, path: str, sync: str = "always", sync_every: int = 8,
                 crash_plan: Optional[CrashPlan] = None,
                 health: Optional[HealthReport] = None):
        self.path = path
        self.health = health if health is not None else HealthReport()
        self.crash_plan = crash_plan
        self._closed = False
        os.makedirs(path, exist_ok=True)
        self._lock_file = open(os.path.join(path, LOCK_FILE), "a+b")
        try:
            fcntl.flock(self._lock_file.fileno(),
                        fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as error:
            self._lock_file.close()
            raise StorageError(
                f"Database directory {path} is locked by another engine "
                f"(close it first, or point this one at a different path)"
            ) from error
        self.stale_files_removed: list[str] = []
        for entry in sorted(os.listdir(path)):
            if entry.endswith(".tmp"):
                os.unlink(os.path.join(path, entry))
                self.stale_files_removed.append(entry)
        self.manifest = self._read_manifest()
        if self.manifest is not None:
            checkpoint_name = self.manifest["checkpoint"]
            if not os.path.exists(os.path.join(path, checkpoint_name)):
                self._unlock()
                raise StorageError(
                    f"Manifest of {path} points at missing checkpoint "
                    f"{checkpoint_name!r}"
                )
            # Unreferenced checkpoints: a crash between rename and
            # manifest swap leaves the new file orphaned (the old
            # manifest still wins); sweep them so the directory holds
            # exactly one checkpoint.
            for entry in self._checkpoint_files():
                if entry != checkpoint_name:
                    os.unlink(os.path.join(path, entry))
                    self.stale_files_removed.append(entry)
        try:
            self.wal = DurableLog(
                os.path.join(path, WAL_FILE), sync=sync,
                sync_every=sync_every, crash_plan=crash_plan,
                health=self.health,
            )
        except StorageError:
            self._unlock()
            raise

    # ------------------------------------------------------------------
    # Manifest and checkpoint management
    # ------------------------------------------------------------------

    def _checkpoint_files(self) -> list[str]:
        return [entry for entry in sorted(os.listdir(self.path))
                if entry.startswith(_CHECKPOINT_PREFIX)
                and entry.endswith(_CHECKPOINT_SUFFIX)]

    def _read_manifest(self) -> Optional[dict]:
        manifest_path = os.path.join(self.path, MANIFEST_FILE)
        if not os.path.exists(manifest_path):
            return None
        try:
            with open(manifest_path, "r", encoding="utf-8") as file:
                manifest = json.load(file)
        except (OSError, json.JSONDecodeError) as error:
            raise StorageError(
                f"Cannot read manifest of {self.path}: {error}"
            ) from error
        if manifest.get("version") != 1 or "checkpoint" not in manifest:
            raise StorageError(
                f"Manifest of {self.path} is malformed: {manifest!r}"
            )
        return manifest

    def _write_manifest(self, manifest: dict) -> None:
        manifest_path = os.path.join(self.path, MANIFEST_FILE)
        tmp = manifest_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as file:
            json.dump(manifest, file)
            file.flush()
            os.fsync(file.fileno())
        if (self.crash_plan is not None
                and self.crash_plan.draw("manifest_swap") == "kill"):
            raise SimulatedCrash("planned crash before manifest swap")
        os.replace(tmp, manifest_path)
        self._fsync_dir()
        self.manifest = manifest

    def _fsync_dir(self) -> None:
        fd = os.open(self.path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def checkpoint_path(self) -> Optional[str]:
        """Absolute path of the manifest's checkpoint, if any."""
        if self.manifest is None:
            return None
        return os.path.join(self.path, self.manifest["checkpoint"])

    def exists(self) -> bool:
        """True when the directory holds a recoverable database."""
        return self.manifest is not None

    def install_checkpoint(self, *, generation: int, program: Program,
                           database: Database,
                           states: Mapping[str, object]) -> None:
        """Run the five-step checkpoint protocol (see module docstring)."""
        name = f"{_CHECKPOINT_PREFIX}{generation}{_CHECKPOINT_SUFFIX}"
        previous = self.manifest["checkpoint"] if self.manifest else None
        write_checkpoint(
            os.path.join(self.path, name), generation=generation,
            program=program, database=database, states=states,
            crash_plan=self.crash_plan,
        )
        self._fsync_dir()
        self._write_manifest(
            {"version": 1, "generation": generation, "checkpoint": name})
        self._reset_wal()
        if previous is not None and previous != name:
            os.unlink(os.path.join(self.path, previous))
        self.health.checkpoints_written += 1

    def _reset_wal(self) -> None:
        """Swap in an empty WAL (records ≤ manifest generation are dead)."""
        if (self.crash_plan is not None
                and self.crash_plan.draw("wal_reset") == "kill"):
            raise SimulatedCrash("planned crash before WAL reset")
        sync, sync_every = self.wal.sync, self.wal.sync_every
        self.wal.close()
        wal_path = os.path.join(self.path, WAL_FILE)
        os.unlink(wal_path)
        self.wal = DurableLog(wal_path, sync=sync, sync_every=sync_every,
                              crash_plan=self.crash_plan, health=self.health)
        # A fresh log starts its generation sequence where the
        # checkpoint left off.
        self.wal.last_generation = self.manifest["generation"]
        self._fsync_dir()

    # ------------------------------------------------------------------

    def _unlock(self) -> None:
        try:
            fcntl.flock(self._lock_file.fileno(), fcntl.LOCK_UN)
        finally:
            self._lock_file.close()

    def close(self) -> None:
        """Flush the WAL and release the directory lock (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self.wal.close()
        finally:
            self._unlock()


class DurableCoordinator:
    """A :class:`MaterializedProgram` whose commits survive crashes.

    The synchronous durable engine: ``open`` either recovers from the
    directory (checkpoint + WAL replay) or cold-builds and writes the
    initial checkpoint; ``apply`` stages, WAL-logs, then applies;
    ``close`` checkpoints (folding the WAL away) and releases
    everything.  The asyncio serving layer drives this through
    ``asyncio.to_thread``; the fuzzer and benchmarks drive it directly.
    """

    def __init__(self, store: DurableStore, state: MaterializedProgram,
                 report: RecoveryReport, checkpoint_every: int = 0,
                 checkpoint_source: Optional[Checkpoint] = None):
        self.store = store
        self.state = state
        self.recovery = report
        self.checkpoint_every = checkpoint_every
        self.health = store.health
        self._checkpoint_source = checkpoint_source
        self._commits_since_checkpoint = 0
        self._dirty = False
        self._closed = False
        atexit.register(self._atexit_close)

    # ------------------------------------------------------------------
    # Opening
    # ------------------------------------------------------------------

    @classmethod
    def open(cls, path: str, program: Optional[Union[Program, str]] = None,
             database: Optional[Database] = None,
             config: Optional[EvalConfig] = None,
             max_iterations: int = 100_000,
             sync: str = "always", sync_every: int = 8,
             checkpoint_every: int = 0,
             crash_plan: Optional[CrashPlan] = None,
             health: Optional[HealthReport] = None) -> "DurableCoordinator":
        """Open (recovering) or create a durable database at *path*.

        An existing store recovers from its checkpoint + WAL — the
        program comes from the checkpoint, so *program*/*database* may
        be omitted.  A fresh directory requires both and writes the
        generation-0 checkpoint before returning, so "created" implies
        "reopenable".
        """
        store = DurableStore(path, sync=sync, sync_every=sync_every,
                             crash_plan=crash_plan, health=health)
        try:
            if store.exists():
                return cls._recover(store, config, max_iterations,
                                    checkpoint_every)
            if program is None or database is None:
                raise StorageError(
                    f"{path} holds no database yet; pass program= and "
                    f"database= to create one"
                )
            return cls._create(store, program, database, config,
                               max_iterations, checkpoint_every)
        except BaseException:
            store.close()
            raise

    @classmethod
    def _create(cls, store: DurableStore, program: Union[Program, str],
                database: Database, config: Optional[EvalConfig],
                max_iterations: int,
                checkpoint_every: int) -> "DurableCoordinator":
        state = MaterializedProgram(program, database, config, max_iterations)
        report = RecoveryReport(
            stale_files_removed=list(store.stale_files_removed))
        coordinator = cls(store, state, report, checkpoint_every)
        coordinator.checkpoint()
        return coordinator

    @classmethod
    def _recover(cls, store: DurableStore, config: Optional[EvalConfig],
                 max_iterations: int,
                 checkpoint_every: int) -> "DurableCoordinator":
        scan: WalScan = store.wal.scan
        checkpoint = Checkpoint(store.checkpoint_path())
        report = RecoveryReport(
            checkpoint_generation=checkpoint.generation,
            records_truncated=scan.truncated_records,
            bytes_truncated=scan.truncated_bytes,
            torn_tail=scan.torn_tail,
            corrupt_tail=scan.corrupt_tail,
            stale_files_removed=list(store.stale_files_removed),
        )
        database = checkpoint.database()
        state = MaterializedProgram.from_state(
            checkpoint.program, database, checkpoint.states(),
            generation=checkpoint.generation, config=config,
            max_iterations=max_iterations,
        )
        expected = checkpoint.generation
        for record in scan.records:
            if record.generation <= checkpoint.generation:
                # Stale records: a crash between manifest swap and WAL
                # reset leaves the pre-checkpoint log behind; its
                # commits are already folded into the checkpoint.
                report.records_skipped += 1
                continue
            expected += 1
            if record.generation != expected:
                raise StorageError(
                    f"WAL replay expected generation {expected}, found "
                    f"{record.generation} — the log does not continue "
                    f"checkpoint {checkpoint.generation}"
                )
            removed, added = record.payload
            change = state.apply(inserts=added, deletes=removed)
            if change.generation != record.generation:
                raise EvaluationError(
                    f"Replaying WAL record {record.generation} advanced "
                    f"the state to generation {change.generation} — "
                    f"replay accounting bug"
                )
            report.records_replayed += 1
            store.health.wal_records_replayed += 1
        # The log's tail may have been truncated; appends resume from
        # the recovered generation either way.
        store.wal.last_generation = state.generation
        report.recovered_generation = state.generation
        return cls(store, state, report, checkpoint_every,
                   checkpoint_source=checkpoint)

    # ------------------------------------------------------------------
    # The MaterializedProgram surface the serving layer drives
    # ------------------------------------------------------------------

    @property
    def program(self) -> Program:
        return self.state.program

    @property
    def generation(self) -> int:
        return self.state.generation

    @property
    def closures(self) -> Mapping[object, object]:
        return self.state.closures

    def closure(self, predicate: object):
        return self.state.closure(predicate)

    def statistics(self, predicate: object):
        return self.state.statistics(predicate)

    def snapshot(self) -> Database:
        return self.state.snapshot()

    # ------------------------------------------------------------------
    # Commit path
    # ------------------------------------------------------------------

    def apply(self, inserts: Optional[Mapping[str, Iterable[Row]]] = None,
              deletes: Optional[Mapping[str, Iterable[Row]]] = None
              ) -> ChangeSet:
        """Commit one batch durably: stage → WAL append → apply.

        The batch is staged (validated and netted) first, so rejected
        batches never reach the log and no-op batches neither log nor
        advance the generation.  The WAL append happens *before* the
        in-memory apply: once ``apply`` returns, the commit is
        recoverable (under the store's sync policy).
        """
        if self._closed:
            raise StorageError("Durable engine is closed")
        staged = self.state.stage(inserts, deletes)
        removed = {name: rows for name, (rows, _) in staged.items() if rows}
        added = {name: rows for name, (_, rows) in staged.items() if rows}
        if not removed and not added:
            return ChangeSet(self.state.generation)
        generation = self.state.generation + 1
        self.store.wal.append(generation, (removed, added))
        change = self.state.apply(inserts=added, deletes=removed)
        if change.generation != generation:
            raise EvaluationError(
                f"Commit logged as generation {generation} applied as "
                f"{change.generation} — durability accounting bug"
            )
        self._dirty = True
        self._commits_since_checkpoint += 1
        if (self.checkpoint_every
                and self._commits_since_checkpoint >= self.checkpoint_every):
            self.checkpoint()
        return change

    def checkpoint(self) -> None:
        """Persist the current state and fold the WAL away."""
        if self._closed:
            raise StorageError("Durable engine is closed")
        states = {
            predicate.name: closure.state()
            for predicate, closure in self.state.closures.items()
        }
        self.store.install_checkpoint(
            generation=self.state.generation, program=self.state.program,
            database=self.state.working, states=states,
        )
        self._commits_since_checkpoint = 0
        self._dirty = False
        self._release_checkpoint_source()

    def _release_checkpoint_source(self) -> None:
        # A newly-installed checkpoint means nothing reads the old
        # mmap'd columns any more *if* the working database has
        # promoted them (any mutation materialises); release eagerly
        # and let BufferError-tolerant close handle the rest.
        if self._checkpoint_source is not None:
            self._checkpoint_source.close()
            self._checkpoint_source = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self, checkpoint: bool = True) -> None:
        """Checkpoint (by default), flush, release lock and maps.

        Idempotent; also runs from an ``atexit`` backstop (without the
        close-time checkpoint — the WAL already holds every commit) so
        an abandoned engine never leaves the directory locked or the
        log unflushed.
        """
        if self._closed:
            return
        if checkpoint and self._dirty:
            self.checkpoint()
        self._closed = True
        atexit.unregister(self._atexit_close)
        try:
            self.store.close()
        finally:
            self._release_checkpoint_source()

    def _atexit_close(self) -> None:
        try:
            self.close(checkpoint=False)
        except Exception:
            pass

    def abandon(self) -> None:
        """Simulate process death: drop every handle, flush nothing.

        Test-only (the crash harness).  Leaves the on-disk state
        exactly as the planned crash left it — no checkpoint, no WAL
        flush — and releases the file descriptors and directory lock
        the way the OS would at process exit, so the directory can be
        re-opened in the same process to exercise recovery.
        """
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self._atexit_close)
        store = self.store
        if not store._closed:
            store._closed = True
            try:
                store.wal._file.close()
            finally:
                store._unlock()
        self._release_checkpoint_source()
