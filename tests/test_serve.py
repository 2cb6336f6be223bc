"""Tests for the async serving layer: LiveEngine, Session, Snapshot,
subscriptions.

No pytest-asyncio in the toolchain, so every test drives its own loop
with ``asyncio.run`` — which also keeps the single-writer/loop
interaction explicit in each scenario.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import (
    Database,
    EvalConfig,
    LiveEngine,
    OverloadError,
    QueryTimeoutError,
    Relation,
    Session,
    Snapshot,
    solve,
    subscribe,
)
from repro.exceptions import SchemaError

TC = (
    "path(X, Y) :- edge(X, Z), path(Z, Y).\n"
    "path(X, Y) :- edge(X, Y)."
)


def tc_db(*pairs):
    return Database.of(Relation.of("edge", 2, list(pairs)))


async def started(pairs=(("a", "b"), ("b", "c")), config=None):
    return await LiveEngine(TC, tc_db(*pairs), config=config).start()


def run(coroutine):
    return asyncio.run(coroutine)


class TestLifecycle:
    def test_requires_start(self):
        engine = LiveEngine(TC, tc_db(("a", "b")))
        assert not engine.started
        with pytest.raises(RuntimeError, match="start"):
            engine.snapshot()
        with pytest.raises(RuntimeError, match="start"):
            engine.transaction()

    def test_start_is_idempotent(self):
        async def scenario():
            engine = await started()
            assert await engine.start() is engine
            assert engine.generation == 0

        run(scenario())

    def test_defaults_to_maintained_mode(self):
        engine = LiveEngine(TC, tc_db(("a", "b")))
        assert engine.maintained
        baseline = LiveEngine(TC, tc_db(("a", "b")), config=EvalConfig())
        assert not baseline.maintained

    def test_config_spec_string(self):
        engine = LiveEngine(TC, tc_db(("a", "b")),
                            config="interned-maintain")
        assert engine.maintained and engine.config.intern


class TestCommits:
    def test_commit_publishes_new_generation(self):
        async def scenario():
            engine = await started()
            async with engine.transaction() as session:
                session.insert("edge", ("c", "d"))
            assert engine.generation == 1
            assert engine.ask("path(a, X)?").rows == {
                ("a", "b"), ("a", "c"), ("a", "d")}

        run(scenario())

    def test_snapshot_isolation(self):
        async def scenario():
            engine = await started()
            frozen = engine.snapshot()
            assert isinstance(frozen, Snapshot)
            async with engine.transaction() as session:
                session.delete("edge", ("b", "c"))
            # The old snapshot still answers from its generation.
            assert frozen.generation == 0
            assert frozen.ask("path(a, X)?").rows == {("a", "b"), ("a", "c")}
            assert frozen.relation("edge").rows == {("a", "b"), ("b", "c")}
            # The new one sees the delete.
            current = engine.snapshot()
            assert current.generation == 1
            assert current.ask("path(a, X)?").rows == {("a", "b")}

        run(scenario())

    def test_explicit_commit_returns_snapshot(self):
        async def scenario():
            engine = await started()
            session = engine.transaction()
            session.insert("edge", ("c", "d")).insert("edge", ("d", "e"))
            assert session.pending == 2
            snapshot = await session.commit()
            assert snapshot.generation == 1
            assert snapshot.closure("path").rows == solve(
                TC, snapshot.database).rows
            with pytest.raises(RuntimeError, match="committed"):
                session.insert("edge", ("x", "y"))
            with pytest.raises(RuntimeError, match="committed"):
                await session.commit()

        run(scenario())

    def test_noop_commit_keeps_generation(self):
        async def scenario():
            engine = await started()
            async with engine.transaction() as session:
                session.insert("edge", ("a", "b"))  # already present
            assert engine.generation == 0

        run(scenario())

    def test_exception_rolls_back(self):
        async def scenario():
            engine = await started()
            with pytest.raises(ValueError):
                async with engine.transaction() as session:
                    session.insert("edge", ("x", "y"))
                    raise ValueError("boom")
            assert engine.generation == 0
            assert ("x", "y") not in engine.snapshot().relation("edge").rows

        run(scenario())

    def test_delete_then_insert_nets_within_transaction(self):
        async def scenario():
            engine = await started()
            async with engine.transaction() as session:
                session.delete("edge", ("a", "b"))
                session.insert("edge", ("a", "b"))  # last call wins
                session.insert("edge", ("c", "d"))
            assert engine.snapshot().relation("edge").rows == {
                ("a", "b"), ("b", "c"), ("c", "d")}

        run(scenario())

    def test_mutating_idb_fails_and_rolls_back(self):
        async def scenario():
            engine = await started()
            session = engine.transaction()
            session.insert("path", ("x", "y"))
            with pytest.raises(SchemaError, match="defined by rules"):
                await session.commit()
            assert engine.generation == 0

        run(scenario())

    def test_concurrent_writers_serialise(self):
        async def scenario():
            engine = await started()

            async def writer(pair):
                async with engine.transaction() as session:
                    session.insert("edge", pair)

            await asyncio.gather(writer(("c", "d")), writer(("d", "e")),
                                 writer(("e", "f")))
            assert engine.generation == 3
            assert engine.snapshot().closure("path").rows == solve(
                TC, engine.snapshot().database).rows

        run(scenario())

    def test_readers_overlapping_a_commit_see_consistent_state(self):
        async def scenario():
            engine = await started()
            generations = []

            async def reader():
                for _ in range(20):
                    snapshot = engine.snapshot()
                    answer = snapshot.ask("path(a, X)?")
                    # Every observed answer matches a recompute against
                    # that snapshot's own database: never half-applied.
                    assert answer.rows == {
                        row for row in solve(TC, snapshot.database).rows
                        if row[0] == "a"}
                    generations.append(snapshot.generation)
                    await asyncio.sleep(0)

            async def writer():
                for pair in [("c", "d"), ("d", "e"), ("b", "a")]:
                    async with engine.transaction() as session:
                        session.insert("edge", pair)
                    await asyncio.sleep(0)

            await asyncio.gather(reader(), writer())
            assert generations == sorted(generations)

        run(scenario())


class TestServedTiers:
    def test_snapshot_asks_come_from_the_maintained_closure(self):
        sg = (
            "sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).\n"
            "sg(X, Y) :- flat(X, Y)."
        )
        database = Database.of(
            Relation.of("up", 2, [(1, 3), (2, 3)]),
            Relation.of("down", 2, [(3, 1), (3, 2)]),
            Relation.of("flat", 2, [(3, 3)]),
        )

        async def scenario():
            engine = await LiveEngine(sg, database).start()
            for text in ("sg(1, 2)?", "sg(1, 9)?", "sg(1, Y)?"):
                answer = engine.ask(text)
                assert answer.strategy == "closure"
                assert answer.statistics.iterations == 0
                assert answer.rows == engine.ask(text, strategy="magic").rows
            async with engine.transaction() as session:
                session.insert("up", (4, 3))
            assert engine.ask("sg(4, Y)?").rows == {(4, 1), (4, 2)}
            # Counted across generations, beside the health counters.
            assert dict(engine.served) == {"closure": 4, "magic": 3}
            assert engine.health.recovery_actions() == 0

        run(scenario())


class TestSubscriptions:
    def test_subscription_receives_changes(self):
        async def scenario():
            engine = await started()
            subscription = engine.subscribe("path(a, X)?")
            async with engine.transaction() as session:
                session.insert("edge", ("c", "d"))
            change = await asyncio.wait_for(subscription.__anext__(), 5)
            assert change.generation == 1
            assert change.added == {("a", "d")}
            assert change.removed == frozenset()
            assert change.answer.rows == {("a", "b"), ("a", "c"), ("a", "d")}

            async with engine.transaction() as session:
                session.delete("edge", ("b", "c"))
            change = await asyncio.wait_for(subscription.__anext__(), 5)
            assert change.removed == {("a", "c"), ("a", "d")}

        run(scenario())

    def test_untouched_query_gets_no_push(self):
        async def scenario():
            database = Database.of(
                Relation.of("edge", 2, [("a", "b")]),
                Relation.of("other", 1, [(1,)]),
            )
            engine = await LiveEngine(TC, database).start()
            subscription = subscribe(engine, "path(a, X)?")
            async with engine.transaction() as session:
                session.insert("other", (2,))
            assert engine.generation == 1
            assert subscription.pending == 0

        run(scenario())

    def test_close_ends_iteration(self):
        async def scenario():
            engine = await started()
            subscription = engine.subscribe("path(a, X)?")
            async with engine.transaction() as session:
                session.insert("edge", ("c", "d"))
            subscription.close()
            changes = [change async for change in subscription]
            assert len(changes) == 1  # queued before close still delivered
            # Closed subscriptions receive nothing further.
            async with engine.transaction() as session:
                session.insert("edge", ("d", "e"))
            assert subscription.pending == 0

        run(scenario())


class TestBaselineParity:
    def test_recompute_mode_matches_maintained_mode(self):
        async def scenario():
            pairs = (("a", "b"), ("b", "c"), ("c", "a"))
            maintained = await started(pairs)
            baseline = await started(pairs, config=EvalConfig())
            batches = [
                ({"edge": [("c", "d")]}, {}),
                ({}, {"edge": [("b", "c")]}),
                ({"edge": [("d", "a")]}, {"edge": [("a", "b")]}),
            ]
            for inserts, deletes in batches:
                for engine in (maintained, baseline):
                    async with engine.transaction() as session:
                        for name, rows in inserts.items():
                            session.insert(name, *rows)
                        for name, rows in deletes.items():
                            session.delete(name, *rows)
                left, right = maintained.snapshot(), baseline.snapshot()
                assert left.generation == right.generation
                assert left.relation("edge").rows == right.relation("edge").rows
                assert left.closure("path").rows == right.closure("path").rows
                assert left.ask("path(X, a)?").rows == right.ask("path(X, a)?").rows

        run(scenario())

    def test_session_type_exported(self):
        engine = LiveEngine(TC, tc_db(("a", "b")))

        async def scenario():
            await engine.start()
            assert isinstance(engine.transaction(), Session)

        run(scenario())


class TestServingEdgeCases:
    def test_rollback_after_staging_deletes_of_missing_rows(self):
        async def scenario():
            engine = await started()
            try:
                async with engine.transaction() as session:
                    session.delete("edge", ("never", "inserted"))
                    session.insert("edge", ("c", "d"))
                    raise ValueError("abort the transaction")
            except ValueError:
                pass
            # The block raised, so nothing was committed: the staged
            # delete of a row that never existed (and the insert) are
            # both discarded without touching the engine.
            assert engine.generation == 0
            assert session.pending == 0
            with pytest.raises(RuntimeError, match="rolled back"):
                session.insert("edge", ("d", "e"))
            # The engine stays healthy for the next writer.
            async with engine.transaction() as session:
                session.insert("edge", ("c", "d"))
            assert engine.generation == 1

        run(scenario())

    def test_committed_delete_of_missing_row_is_a_noop(self):
        async def scenario():
            engine = await started()
            async with engine.transaction() as session:
                session.delete("edge", ("never", "inserted"))
            # Nothing changed, so no generation was published.
            assert engine.generation == 0
            assert engine.snapshot().relation("edge").rows == {
                ("a", "b"), ("b", "c")}

        run(scenario())

    def test_subscriber_cancelled_mid_commit(self):
        async def scenario():
            engine = await started()
            subscription = engine.subscribe("path(a, X)?")
            reader = asyncio.create_task(subscription.__anext__())
            await asyncio.sleep(0)  # park the reader on the queue
            reader.cancel()
            async with engine.transaction() as session:
                session.insert("edge", ("c", "d"))
            with pytest.raises(asyncio.CancelledError):
                await reader
            # The cancelled reader neither blocked the commit nor lost
            # the change: it is still queued for the next consumer.
            assert engine.generation == 1
            assert subscription.pending == 1
            change = await asyncio.wait_for(subscription.__anext__(), 5)
            assert change.added == {("a", "d")}
            subscription.close()
            assert [change async for change in subscription] == []
            # Closing after a cancelled read leaves the engine clean:
            # later commits push nothing to the detached subscriber.
            async with engine.transaction() as session:
                session.insert("edge", ("d", "e"))
            assert subscription.pending == 0

        run(scenario())

    def test_close_cancels_open_subscriptions(self):
        async def scenario():
            engine = await started()
            subscription = engine.subscribe("path(a, X)?")
            await engine.close()
            await engine.close()  # idempotent
            with pytest.raises(StopAsyncIteration):
                await subscription.__anext__()
            with pytest.raises(RuntimeError, match="closed"):
                async with engine.transaction() as session:
                    session.insert("edge", ("c", "d"))

        run(scenario())


class TestGuardrails:
    def test_overload_sheds_before_staging(self):
        async def scenario():
            engine = await LiveEngine(TC, tc_db(("a", "b")),
                                      max_pending_commits=1).start()
            await engine._lock.acquire()  # stall the writer
            first = asyncio.create_task(
                engine._commit({"edge": {("b", "c")}}, {}))
            await asyncio.sleep(0)  # first commit now waits on the lock
            with pytest.raises(OverloadError, match="retry later"):
                async with engine.transaction() as session:
                    session.insert("edge", ("c", "d"))
            assert engine.health.commits_shed == 1
            # Shedding rejected the batch before staging: releasing the
            # lock lands only the first commit.
            engine._lock.release()
            await first
            assert engine.generation == 1
            assert engine.snapshot().relation("edge").rows == {
                ("a", "b"), ("b", "c")}

        run(scenario())

    def test_query_timeout_counted_on_health(self, monkeypatch):
        import time

        original = Snapshot.ask

        def slow_ask(self, query, strategy="auto"):
            time.sleep(0.25)
            return original(self, query, strategy=strategy)

        monkeypatch.setattr(Snapshot, "ask", slow_ask)

        async def scenario():
            engine = await LiveEngine(TC, tc_db(("a", "b")),
                                      query_timeout=0.01).start()
            with pytest.raises(QueryTimeoutError, match="serving deadline"):
                await engine.ask_async("path(a, X)?")
            assert engine.health.query_timeouts == 1
            # A generous per-call deadline overrides the engine default.
            answer = await engine.ask_async("path(a, X)?", timeout=30)
            assert answer.rows == {("a", "b")}

        run(scenario())

    def test_negative_pending_bound_rejected(self):
        with pytest.raises(ValueError, match="max_pending_commits"):
            LiveEngine(TC, tc_db(("a", "b")), max_pending_commits=-1)
