"""Durability tests: WAL, checkpoints, crash-injection recovery parity.

The recovery contract under test: after *any* planned crash
(:class:`~repro.engine.faults.CrashPlan`), re-opening the database
directory yields a state bit-identical — closure rows, Theorem-3.1
counters, base relations — to an uncrashed twin that committed only
the durable prefix, with every WAL record accounted for in the
:class:`~repro.durability.RecoveryReport`.
"""

from __future__ import annotations

import asyncio
import atexit
import os
import struct
from array import array

import pytest

from repro import (
    Checkpoint,
    Database,
    DurableCoordinator,
    DurableLog,
    EvalConfig,
    LiveEngine,
    RecoveryReport,
    Relation,
    StorageError,
)
from repro.durability.checkpoint import write_checkpoint
from repro.durability.store import DurableStore
from repro.engine.faults import CrashEvent, CrashPlan, SimulatedCrash
from repro.ivm.maintain import MaterializedProgram

TC = (
    "path(X, Y) :- edge(X, Z), path(Z, Y).\n"
    "path(X, Y) :- edge(X, Y)."
)

EDGES = [(1, 2), (2, 3), (3, 4)]

#: A deterministic mixed workload: every batch changes something.
BATCHES = [
    ({"edge": [(4, 5)]}, {}),
    ({"edge": [(5, 6), (6, 1)]}, {}),
    ({}, {"edge": [(2, 3)]}),
    ({"edge": [(2, 3), (7, 8)]}, {"edge": [(6, 1)]}),
    ({}, {"edge": [(7, 8), (1, 2)]}),
    ({"edge": [(1, 2), (8, 9)]}, {}),
]


def tc_db():
    return Database.of(Relation.of("edge", 2, list(EDGES)))


def fingerprint(state) -> tuple:
    """Everything recovery must reproduce bit-identically."""
    return (
        state.generation,
        {name: relation.rows
         for name, relation in state.working.relations.items()},
        {predicate.name: closure.closure.rows
         for predicate, closure in state.closures.items()},
        {predicate.name: closure.statistics().as_dict()
         for predicate, closure in state.closures.items()},
        {predicate.name: (dict(closure.q), dict(closure.supp))
         for predicate, closure in state.closures.items()},
    )


def twin_at(generation: int):
    """An uncrashed engine that committed only the first *generation* batches."""
    twin = MaterializedProgram(TC, tc_db())
    for inserts, deletes in BATCHES[:generation]:
        twin.apply(inserts=inserts, deletes=deletes)
    return twin


# ----------------------------------------------------------------------
# The write-ahead log
# ----------------------------------------------------------------------


class TestDurableLog:
    def test_append_and_reopen_roundtrip(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = DurableLog(path)
        log.append(1, {"a": [1, 2]})
        log.append(2, ("rows", frozenset({(1, 2)})))
        log.close()
        reopened = DurableLog(path)
        assert [record.generation for record in reopened.records] == [1, 2]
        assert reopened.records[0].payload == {"a": [1, 2]}
        assert reopened.records[1].payload == ("rows", frozenset({(1, 2)}))
        assert reopened.scan.truncated_records == 0
        assert reopened.last_generation == 2
        reopened.close()

    def test_torn_tail_is_truncated_and_counted(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = DurableLog(path)
        log.append(1, "first")
        log.append(2, "second")
        log.close()
        size = os.path.getsize(path)
        with open(path, "r+b") as file:
            file.truncate(size - 3)  # tear the last record
        reopened = DurableLog(path)
        assert [record.payload for record in reopened.records] == ["first"]
        assert reopened.scan.torn_tail
        assert reopened.scan.truncated_records == 1
        assert reopened.scan.truncated_bytes > 0
        # After truncation the file ends at the valid prefix and a
        # fresh append continues the sequence.
        reopened.append(2, "second again")
        reopened.close()
        final = DurableLog(path)
        assert [record.payload for record in final.records] == [
            "first", "second again"]
        assert final.scan.truncated_records == 0
        final.close()

    def test_corrupt_record_is_truncated(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = DurableLog(path)
        log.append(1, "first")
        offset = os.path.getsize(path)
        log.append(2, "second")
        log.close()
        with open(path, "r+b") as file:
            file.seek(offset + 4)  # the second record's stored CRC
            file.write(b"\xde\xad\xbe\xef")
        reopened = DurableLog(path)
        assert [record.payload for record in reopened.records] == ["first"]
        assert reopened.scan.corrupt_tail
        assert reopened.scan.truncated_records == 1
        assert reopened.health.wal_records_truncated == 1
        reopened.close()

    def test_non_monotonic_generations_are_real_corruption(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = DurableLog(path)
        log.append(5, "x")
        with pytest.raises(StorageError, match="does not advance"):
            log.append(5, "y")
        log.close()

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with open(path, "wb") as file:
            file.write(b"NOTAWAL!" + b"\0" * 32)
        with pytest.raises(StorageError, match="bad magic"):
            DurableLog(path)

    def test_sync_policy_validated(self, tmp_path):
        with pytest.raises(StorageError, match="sync policy"):
            DurableLog(str(tmp_path / "wal.log"), sync="sometimes")

    def test_batch_sync_flushes_on_close(self, tmp_path):
        path = str(tmp_path / "wal.log")
        log = DurableLog(path, sync="batch", sync_every=100)
        for generation in range(1, 6):
            log.append(generation, generation)
        log.close()
        reopened = DurableLog(path)
        assert len(reopened.records) == 5
        reopened.close()


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------


def checkpointed_state(tmp_path):
    state = MaterializedProgram(TC, tc_db())
    state.apply(inserts={"edge": [(4, 5)]})
    path = str(tmp_path / "state.ckpt")
    write_checkpoint(
        path, generation=state.generation, program=state.program,
        database=state.working,
        states={predicate.name: closure.state()
                for predicate, closure in state.closures.items()},
    )
    return state, path


class TestCheckpoint:
    def test_roundtrip_database_and_states(self, tmp_path):
        state, path = checkpointed_state(tmp_path)
        checkpoint = Checkpoint(path)
        assert checkpoint.generation == 1
        assert str(checkpoint.program) == str(state.program)
        database = checkpoint.database()
        assert database.relations["edge"].rows == \
            state.working.relations["edge"].rows
        restored = checkpoint.states()["path"]
        maintained = next(iter(state.closures.values()))
        assert restored.rows == maintained.closure.rows
        assert dict(restored.q) == maintained.q
        assert dict(restored.supp) == maintained.supp
        checkpoint.close()
        checkpoint.close()  # idempotent

    def test_open_is_zero_copy_and_primed(self, tmp_path):
        state, path = checkpointed_state(tmp_path)
        checkpoint = Checkpoint(path)
        database = checkpoint.database()
        interned = database.interned_relation("edge", 2)
        # The columns are memoryview windows into the mapped file, not
        # re-interned arrays: opening never copies column data.
        assert all(isinstance(column, memoryview)
                   for column in interned.columns)
        # And the domain reproduces the checkpointed id assignment, so
        # the decoded rows match the stored relation exactly.
        domain = database.domain()
        decoded = {
            tuple(domain.value_of(column[j]) for column in interned.columns)
            for j in range(interned.length)
        }
        assert decoded == state.working.relations["edge"].rows
        # First mutation promotes copy-on-write.
        interned.extend_with([(99, 100)], domain)
        assert all(isinstance(column, array) for column in interned.columns)
        checkpoint.close()

    def test_meta_corruption_detected(self, tmp_path):
        _, path = checkpointed_state(tmp_path)
        with open(path, "r+b") as file:
            file.seek(40)  # inside the meta block
            file.write(b"\xff\xff")
        with pytest.raises(StorageError, match="checksum"):
            Checkpoint(path)

    def test_blob_corruption_detected(self, tmp_path):
        _, path = checkpointed_state(tmp_path)
        with open(path, "r+b") as file:
            blob_base = struct.unpack(
                "<Q", open(path, "rb").read(24)[16:24])[0]
            file.seek(blob_base + 1)
            file.write(b"\x7f")
        with pytest.raises(StorageError, match="blob region"):
            Checkpoint(path)

    def test_missing_file_is_storage_error(self, tmp_path):
        with pytest.raises(StorageError, match="Cannot open"):
            Checkpoint(str(tmp_path / "nope.ckpt"))

    def test_write_is_atomic(self, tmp_path):
        _, path = checkpointed_state(tmp_path)
        assert not os.path.exists(path + ".tmp")


# ----------------------------------------------------------------------
# The store and coordinator
# ----------------------------------------------------------------------


class TestDurableStore:
    def test_concurrent_open_fails_fast_with_storage_error(self, tmp_path):
        path = str(tmp_path / "db")
        first = DurableCoordinator.open(path, TC, tc_db())
        # A second open of a locked directory must fail cleanly (no
        # deadlock, no partial state) — same process or another.
        with pytest.raises(StorageError, match="locked by another"):
            DurableStore(path)
        first.close()
        # After close the directory opens normally again.
        second = DurableCoordinator.open(path)
        assert second.recovery.clean
        second.close()

    def test_manifest_pointing_at_missing_checkpoint(self, tmp_path):
        path = str(tmp_path / "db")
        coordinator = DurableCoordinator.open(path, TC, tc_db())
        checkpoint_name = coordinator.store.manifest["checkpoint"]
        coordinator.close()
        os.unlink(os.path.join(path, checkpoint_name))
        with pytest.raises(StorageError, match="missing checkpoint"):
            DurableCoordinator.open(path)

    def test_fresh_directory_requires_program_and_database(self, tmp_path):
        with pytest.raises(StorageError, match="no database yet"):
            DurableCoordinator.open(str(tmp_path / "empty"))

    def test_clean_close_leaves_no_stale_files(self, tmp_path):
        path = str(tmp_path / "db")
        coordinator = DurableCoordinator.open(path, TC, tc_db())
        coordinator.apply(inserts={"edge": [(4, 5)]})
        coordinator.close()
        coordinator.close()  # idempotent
        entries = sorted(os.listdir(path))
        assert entries == ["LOCK", "MANIFEST", "checkpoint-1.ckpt", "wal.log"]
        # atexit backstop was unregistered by close (a second call must
        # be a no-op even if Python invoked it at exit).
        coordinator._atexit_close()

    def test_periodic_checkpoint_folds_wal_away(self, tmp_path):
        path = str(tmp_path / "db")
        coordinator = DurableCoordinator.open(path, TC, tc_db(),
                                              checkpoint_every=2)
        for inserts, deletes in BATCHES[:4]:
            coordinator.apply(inserts=inserts, deletes=deletes)
        # Two periodic checkpoints ran (after commits 2 and 4) plus the
        # creation checkpoint; the WAL is empty at each boundary.
        assert coordinator.health.checkpoints_written == 3
        assert coordinator.store.manifest["generation"] == 4
        assert coordinator.store.wal.records == []
        coordinator.close()
        reopened = DurableCoordinator.open(path)
        assert reopened.recovery.clean
        assert fingerprint(reopened.state) == fingerprint(twin_at(4))
        reopened.close()

    def test_noop_batches_are_not_logged(self, tmp_path):
        path = str(tmp_path / "db")
        coordinator = DurableCoordinator.open(path, TC, tc_db())
        change = coordinator.apply(inserts={"edge": [(1, 2)]})  # already there
        assert not change
        assert coordinator.health.wal_records_appended == 0
        assert coordinator.state.generation == 0
        coordinator.close()


# ----------------------------------------------------------------------
# Crash-injection recovery parity
# ----------------------------------------------------------------------


def run_until_crash(path, plan, checkpoint_every=0, sync="always"):
    """Drive the workload into a planned crash; leave the dir crashed."""
    coordinator = None
    try:
        coordinator = DurableCoordinator.open(
            path, TC, tc_db(), checkpoint_every=checkpoint_every,
            sync=sync, crash_plan=plan,
        )
        for inserts, deletes in BATCHES:
            coordinator.apply(inserts=inserts, deletes=deletes)
        coordinator.close()
        return False  # plan never fired
    except SimulatedCrash:
        if coordinator is not None:
            coordinator.abandon()
        return True


def assert_recovery_parity(path):
    """Reopen and compare against the uncrashed twin of the durable prefix."""
    recovered = DurableCoordinator.open(path, TC, tc_db())
    try:
        report = recovered.recovery
        generation = report.recovered_generation
        assert fingerprint(recovered.state) == fingerprint(twin_at(generation))
        # Accounting: every record the scan saw is replayed, skipped or
        # truncated; the replayed count carries from checkpoint to tip.
        assert report.records_replayed == \
            generation - report.checkpoint_generation
        assert report.records_truncated in (0, 1)
        return report
    finally:
        recovered.close()


class TestCrashRecovery:
    @pytest.mark.parametrize("kind", ["kill", "torn", "corrupt"])
    @pytest.mark.parametrize("after", [0, 2, 4])
    def test_wal_crashes_recover(self, tmp_path, kind, after):
        path = str(tmp_path / "db")
        plan = CrashPlan([CrashEvent("wal_append", kind, after=after)])
        assert run_until_crash(path, plan)
        report = assert_recovery_parity(path)
        assert report.recovered_generation == after
        if kind in ("torn", "corrupt"):
            assert report.records_truncated == 1
            assert report.torn_tail == (kind == "torn")
            assert report.corrupt_tail == (kind == "corrupt")
        else:
            assert report.records_truncated == 0

    def test_crash_before_wal_fsync(self, tmp_path):
        path = str(tmp_path / "db")
        plan = CrashPlan([CrashEvent("wal_sync", "kill", after=1)])
        assert run_until_crash(path, plan)
        assert_recovery_parity(path)

    @pytest.mark.parametrize("point", ["checkpoint_write", "manifest_swap",
                                       "wal_reset"])
    def test_checkpoint_protocol_crashes_recover(self, tmp_path, point):
        path = str(tmp_path / "db")
        # after=1 skips the creation checkpoint and crashes the first
        # periodic one (at generation 2).
        plan = CrashPlan([CrashEvent(point, "kill", after=1)])
        assert run_until_crash(path, plan, checkpoint_every=2)
        report = assert_recovery_parity(path)
        assert report.recovered_generation == 2
        if point == "wal_reset":
            # Manifest swapped but the old WAL survived: its records
            # are stale and must be skipped, not replayed.
            assert report.checkpoint_generation == 2
            assert report.records_skipped == 2
        else:
            assert report.checkpoint_generation == 0

    def test_crash_during_creation_checkpoint(self, tmp_path):
        path = str(tmp_path / "db")
        plan = CrashPlan([CrashEvent("checkpoint_write", "kill", after=0)])
        assert run_until_crash(path, plan)
        # No manifest was ever installed: the directory holds no
        # database, and create runs again from the inputs.
        report = assert_recovery_parity(path)
        assert report.recovered_generation == 0

    def test_batched_sync_crash_recovers_a_prefix(self, tmp_path):
        path = str(tmp_path / "db")
        plan = CrashPlan([CrashEvent("wal_append", "torn", after=3)])
        assert run_until_crash(path, plan, sync="batch")
        assert_recovery_parity(path)

    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_crash_sweep(self, tmp_path, seed):
        """The fuzzer's schedule generator, pinned over a seed range."""
        path = str(tmp_path / "db")
        plan = CrashPlan.from_seed(seed)
        crashed = run_until_crash(path, plan, checkpoint_every=2)
        report = assert_recovery_parity(path)
        if crashed:
            assert plan.exhausted()
        else:
            assert report.clean

    def test_double_crash_then_recover(self, tmp_path):
        """A crash during the recovery run's own commits also recovers."""
        path = str(tmp_path / "db")
        assert run_until_crash(
            path, CrashPlan([CrashEvent("wal_append", "torn", after=2)]))
        # Second run, itself crashing later.
        second = DurableCoordinator.open(
            path, crash_plan=CrashPlan(
                [CrashEvent("wal_append", "corrupt", after=1)]))
        assert second.recovery.recovered_generation == 2
        try:
            for inserts, deletes in BATCHES[2:]:
                second.apply(inserts=inserts, deletes=deletes)
            raise AssertionError("planned crash did not fire")
        except SimulatedCrash:
            second.abandon()
        report = assert_recovery_parity(path)
        assert report.recovered_generation == 3


# ----------------------------------------------------------------------
# RecoveryReport surface
# ----------------------------------------------------------------------


class TestRecoveryReport:
    def test_as_dict_accounts_for_every_record(self):
        report = RecoveryReport(checkpoint_generation=2,
                                recovered_generation=5,
                                records_replayed=3, records_skipped=2,
                                records_truncated=1, bytes_truncated=17,
                                torn_tail=True)
        flat = report.as_dict()
        assert flat["records_replayed"] + flat["records_skipped"] + \
            flat["records_truncated"] == 6
        assert flat["clean"] is False

    def test_clean_report(self):
        assert RecoveryReport().clean
        assert not RecoveryReport(records_skipped=1).clean
        assert not RecoveryReport(stale_files_removed=["x.tmp"]).clean


# ----------------------------------------------------------------------
# Config surface
# ----------------------------------------------------------------------


class TestDurableConfig:
    def test_spec_token_implies_maintain(self):
        config = EvalConfig.from_spec("interned-durable")
        assert config.durable and config.maintain and config.intern
        assert config.spec() == "interned-serial-durable"

    def test_spec_roundtrip(self):
        spec = "interned-threads-durable"
        canonical = EvalConfig.from_spec(spec).spec()
        assert canonical == "interned-serial-durable"
        assert EvalConfig.from_spec(canonical).spec() == canonical

    def test_durable_requires_maintain(self):
        with pytest.raises(ValueError, match="requires maintain"):
            EvalConfig(durable=True)
        with pytest.raises(ValueError, match="maintain given twice"):
            EvalConfig.from_spec("durable", maintain=False)

    def test_unknown_token_message_mentions_durable(self):
        with pytest.raises(ValueError, match="durable"):
            EvalConfig.from_spec("durible")

    def test_durable_engine_requires_path(self):
        with pytest.raises(ValueError, match="requires a storage path"):
            LiveEngine(TC, tc_db(), config="interned-durable")


# ----------------------------------------------------------------------
# The durable LiveEngine (async serving on top of the coordinator)
# ----------------------------------------------------------------------


def run(coroutine):
    return asyncio.run(coroutine)


class TestDurableServing:
    def test_open_close_reopen(self, tmp_path):
        path = str(tmp_path / "db")

        async def scenario():
            engine = await LiveEngine(TC, tc_db(), path=path).start()
            assert engine.durable and engine.recovery.clean
            async with engine.transaction() as session:
                session.insert("edge", (4, 5))
            rows = engine.ask("path(1, X)?").rows
            stats = engine.snapshot().statistics("path").as_dict()
            await engine.close()
            await engine.close()  # idempotent
            reopened = await LiveEngine.open(path)
            assert reopened.recovery.clean
            assert reopened.generation == 1
            assert reopened.ask("path(1, X)?").rows == rows
            assert reopened.snapshot().statistics("path").as_dict() == stats
            await reopened.close()

        run(scenario())

    def test_commits_survive_a_crash_without_close(self, tmp_path):
        path = str(tmp_path / "db")

        async def write_and_crash():
            engine = await LiveEngine(TC, tc_db(), path=path).start()
            async with engine.transaction() as session:
                session.insert("edge", (4, 5))
            rows = engine.ask("path(1, X)?").rows
            # Simulated process death: no close(), no checkpoint.
            engine._state.abandon()
            engine._closed = True
            atexit.unregister(engine._atexit_close)
            return rows

        async def recover(rows):
            engine = await LiveEngine.open(path)
            assert not engine.recovery.clean
            assert engine.recovery.records_replayed == 1
            assert engine.health.wal_records_replayed == 1
            assert engine.ask("path(1, X)?").rows == rows
            await engine.close()

        rows = run(write_and_crash())
        run(recover(rows))

    def test_checkpoint_api_and_mmap_reopen(self, tmp_path):
        path = str(tmp_path / "db")

        async def scenario():
            engine = await LiveEngine(TC, tc_db(), path=path).start()
            async with engine.transaction() as session:
                session.insert("edge", (4, 5))
            await engine.checkpoint()
            assert engine.health.checkpoints_written == 2
            await engine.close()
            reopened = await LiveEngine.open(path)
            # Recovery replayed nothing: the checkpoint carried it all,
            # and the working database's interned columns came straight
            # off the map (serving snapshots are cache-free copies, so
            # the zero-copy guarantee is observed on the working set).
            assert reopened.recovery.records_replayed == 0
            interned = reopened._state.state.working.interned_relation(
                "edge", 2)
            assert all(isinstance(column, memoryview)
                       for column in interned.columns)
            assert reopened.ask("path(1, X)?").rows
            await reopened.close()

        run(scenario())
