"""The live engine: single writer, generation-tagged snapshot readers.

:class:`LiveEngine` is the asyncio front end over
:class:`~repro.ivm.MaterializedProgram`.  One writer at a time pumps
delta batches through the maintenance engine (commits serialise on an
``asyncio.Lock``; the heavy lifting runs in a worker thread so the
event loop keeps serving); every commit publishes a fresh
:class:`~repro.serve.Snapshot` by atomic reference swap.  Readers
never block and never see a half-applied batch: they either hold a
snapshot (frozen forever at its generation) or take the current one.

Subscriptions ride the same commit path: after each publish, every
live subscription whose query touches a mutated relation or maintained
predicate is re-answered against the new snapshot, and subscribers
receive a :class:`ResultChange` carrying the generation, the new
answer and the net row delta.

``EvalConfig(maintain=False)`` (or any spec without the ``maintain``
token) selects the recompute-per-commit baseline: same API, same
answers, but every commit re-runs the cold fixpoints — the honest
yardstick the IVM benchmarks and differential fuzzer compare against.

Durability and guardrails
-------------------------

With a storage ``path`` (or the ``durable`` config token) the engine
runs on a :class:`~repro.durability.DurableCoordinator`: every commit
is appended to the write-ahead log before it is applied, checkpoints
fold the log away periodically and on :meth:`LiveEngine.close`, and
:meth:`LiveEngine.open` recovers a crashed or cleanly-closed database
by mmap'ing the checkpoint and replaying the WAL suffix — the
:class:`~repro.durability.RecoveryReport` is on
:attr:`LiveEngine.recovery`.

Serving guardrails protect the event loop under load:
:meth:`LiveEngine.ask_async` enforces a per-query deadline
(:class:`~repro.exceptions.QueryTimeoutError`), and commits beyond
``max_pending_commits`` waiting on the single-writer lock are shed
with :class:`~repro.exceptions.OverloadError` before anything is
staged or logged.  Both guardrails and the WAL/recovery counters fold
into the :class:`~repro.engine.statistics.HealthReport` on
:attr:`LiveEngine.health`.
"""

from __future__ import annotations

import asyncio
import atexit
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Union

from repro.datalog.atoms import Predicate
from repro.datalog.programs import Program
from repro.durability.store import DurableCoordinator
from repro.engine.faults import CrashPlan
from repro.engine.parallel import EvalConfig
from repro.engine.seminaive import solve_linear_recursion
from repro.engine.statistics import EvaluationStatistics, HealthReport
from repro.exceptions import OverloadError, QueryTimeoutError
from repro.ivm.maintain import ChangeSet, Delta, MaterializedProgram, stage_batch
from repro.query.engine import QueryAnswer, QueryEngine
from repro.query.query import Query
from repro.serve.session import Session, Snapshot
from repro.storage.database import Database
from repro.storage.relation import Relation, Row


@dataclass(frozen=True)
class ResultChange:
    """One push notification: a subscribed query's answer changed."""

    #: Generation of the commit that produced this change.
    generation: int
    query: Query
    #: The full new answer at :attr:`generation`.
    answer: QueryAnswer
    #: Rows that entered the answer with this commit.
    added: frozenset[Row]
    #: Rows that left the answer with this commit.
    removed: frozenset[Row]


_CLOSED = object()


class Subscription:
    """An async iterator of :class:`ResultChange` for one query.

    Obtained from :meth:`LiveEngine.subscribe`.  Changes are queued as
    commits land (an unread subscriber never blocks the writer) and
    consumed with ``async for change in subscription``.  Commits that
    do not change the query's answer push nothing.  :meth:`close`
    detaches from the engine and ends the iteration once the queue
    drains.
    """

    def __init__(self, engine: "LiveEngine", query: Query,
                 answer: QueryAnswer):
        self._engine = engine
        self.query = query
        #: The answer as of the subscriber's last delivered generation
        #: (initially the answer at subscribe time).
        self.rows = answer.rows
        self._queue: asyncio.Queue = asyncio.Queue()
        self.closed = False

    @property
    def pending(self) -> int:
        """Queued changes not yet consumed."""
        return self._queue.qsize()

    def _push(self, change: ResultChange) -> None:
        self.rows = change.answer.rows
        self._queue.put_nowait(change)

    def close(self) -> None:
        """Detach from the engine; iteration ends after the queue drains."""
        if not self.closed:
            self.closed = True
            try:
                self._engine._subscriptions.remove(self)
            except ValueError:  # pragma: no cover - already detached
                pass
            self._queue.put_nowait(_CLOSED)

    def __aiter__(self) -> "Subscription":
        return self

    async def __anext__(self) -> ResultChange:
        if self.closed and self._queue.empty():
            raise StopAsyncIteration
        item = await self._queue.get()
        if item is _CLOSED:
            raise StopAsyncIteration
        return item


class _ColdClosure:
    """Recompute-baseline stand-in for a MaintainedClosure."""

    __slots__ = ("closure", "_statistics")

    def __init__(self, closure: Relation, statistics: EvaluationStatistics):
        self.closure = closure
        self._statistics = statistics

    def statistics(self) -> EvaluationStatistics:
        return self._statistics


class _RecomputeState:
    """``maintain=False`` backing state: cold fixpoints every commit.

    Mirrors the :class:`~repro.ivm.MaterializedProgram` surface the
    engine drives (``closures``/``apply``/``snapshot``/``generation``)
    but answers every commit by re-running the fixpoint of every
    predicate from scratch — what serving looked like before
    maintenance existed, kept as the baseline mode.
    """

    def __init__(self, program: Program, database: Database,
                 config: Optional[EvalConfig], max_iterations: int):
        self.program = program
        self.config = config
        self.max_iterations = max_iterations
        self.generation = 0
        self._idb_names = frozenset(
            predicate.name for predicate in program.idb_predicates
        )
        self.working = Database(dict(database.relations))
        self.closures: dict[Predicate, _ColdClosure] = {}
        self._recompute()

    def _recompute(self) -> None:
        for predicate in sorted(self.program.idb_predicates):
            statistics = EvaluationStatistics()
            closure = solve_linear_recursion(
                self.program.linear_recursion_of(predicate), self.working,
                statistics, self.max_iterations, config=self.config,
            )
            self.closures[predicate] = _ColdClosure(closure, statistics)

    def snapshot(self) -> Database:
        return Database(dict(self.working.relations))

    def apply(self, inserts: Optional[Mapping[str, object]] = None,
              deletes: Optional[Mapping[str, object]] = None) -> ChangeSet:
        staged = stage_batch(self.working.relations, self._idb_names,
                             inserts or {}, deletes or {})
        staged = {name: delta for name, delta in staged.items()
                  if delta[0] or delta[1]}
        if not staged:
            return ChangeSet(self.generation)
        before = {predicate.name: cold.closure.rows
                  for predicate, cold in self.closures.items()}
        working = self.working
        for name, (removed, added) in staged.items():
            stored = working.relations.get(name)
            arity = stored.arity if stored is not None else len(next(iter(added)))
            old_rows = stored.rows if stored is not None else frozenset()
            working = working.with_relation(Relation.from_canonical(
                name, arity, (old_rows - removed) | added))
        self.working = working
        self._recompute()
        predicate_deltas: dict[str, Delta] = {}
        for predicate, cold in self.closures.items():
            old_rows = before[predicate.name]
            new_rows = cold.closure.rows
            delta = Delta(added=new_rows - old_rows,
                          removed=old_rows - new_rows)
            if delta:
                predicate_deltas[predicate.name] = delta
        self.generation += 1
        relation_deltas = {
            name: Delta(added=added, removed=removed)
            for name, (removed, added) in staged.items()
        }
        return ChangeSet(self.generation, relation_deltas, predicate_deltas)


class LiveEngine:
    """Long-lived serving engine: transactions in, snapshots out.

    ::

        engine = await LiveEngine(program, database).start()

        reader = engine.snapshot()            # frozen at its generation
        reader.ask("path(a, X)?")

        async with engine.transaction() as session:
            session.insert("edge", ("b", "c"))
            session.delete("edge", ("a", "b"))
        # one atomic commit; engine.snapshot() now serves the result

        subscription = engine.subscribe("path(a, X)?")
        async for change in subscription:
            ...  # ResultChange per commit that moved the answer

    *config* may be an :class:`~repro.engine.parallel.EvalConfig` or a
    spec string (``"interned-maintain"``); when omitted the
    engine defaults to maintained mode (``EvalConfig(maintain=True)``),
    since incremental maintenance is the point of serving live.  An
    explicit config without ``maintain`` selects the
    recompute-per-commit baseline.
    """

    def __init__(self, program: Union[Program, str, None], database: Optional[Database],
                 config: Union[EvalConfig, str, None] = None,
                 max_iterations: int = 100_000, *,
                 path: Optional[str] = None,
                 checkpoint_every: int = 0,
                 sync: str = "always",
                 max_pending_commits: int = 64,
                 query_timeout: Optional[float] = None,
                 crash_plan: Optional[CrashPlan] = None):
        if isinstance(program, str):
            from repro.datalog.parser import parse_program
            program = parse_program(program)
        if isinstance(config, str):
            config = EvalConfig.from_spec(config)
        if config is None:
            config = EvalConfig(maintain=True, durable=path is not None)
        elif path is not None and not config.durable:
            # A storage path makes the engine durable; the replace
            # re-validates (durable still requires maintain).
            config = replace(config, durable=True)
        if config.durable and path is None:
            raise ValueError(
                "durable serving requires a storage path: pass "
                "path='<directory>' (created if missing) to LiveEngine, "
                "or drop 'durable' from the config"
            )
        if program is None and path is None:
            raise ValueError(
                "LiveEngine needs a program (and database), or a durable "
                "path= holding a recoverable one"
            )
        if max_pending_commits < 0:
            raise ValueError("max_pending_commits must be >= 0 (0 = unbounded)")
        self.program = program
        self.config = config
        self.max_iterations = max_iterations
        self.path = path
        self.checkpoint_every = checkpoint_every
        self.sync = sync
        self.max_pending_commits = max_pending_commits
        self.query_timeout = query_timeout
        self.crash_plan = crash_plan
        #: WAL/recovery/guardrail counters for this engine's lifetime.
        self.health = HealthReport()
        self._initial = database
        self._state: Union[MaterializedProgram, _RecomputeState,
                           DurableCoordinator, None] = None
        self._snapshot: Optional[Snapshot] = None
        self._lock: Optional[asyncio.Lock] = None
        self._subscriptions: list[Subscription] = []
        self._pending_commits = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "LiveEngine":
        """Run the cold build (or recovery) off-loop and publish."""
        if self._state is not None:
            return self
        self._lock = asyncio.Lock()
        self._state = await asyncio.to_thread(self._build_state)
        if self.program is None:
            # Opened from storage: the program was recovered from the
            # checkpoint.
            self.program = self._state.program
        if self.config.durable:
            atexit.register(self._atexit_close)
        self._publish()
        return self

    @classmethod
    async def open(cls, path: str,
                   config: Union[EvalConfig, str, None] = None,
                   **kwargs: object) -> "LiveEngine":
        """Open (recovering) the durable database at *path* and start.

        The program, relations, interned storage and maintained
        counters all come from the directory's checkpoint + WAL;
        ``engine.recovery`` reports what recovery did.  Accepts the
        same keyword arguments as the constructor.
        """
        engine = cls(None, None, config, path=path, **kwargs)  # type: ignore[arg-type]
        return await engine.start()

    def _build_state(self) -> Union[MaterializedProgram, _RecomputeState,
                                    DurableCoordinator]:
        if self.config.durable:
            assert self.path is not None
            return DurableCoordinator.open(
                self.path, self.program, self._initial,
                config=self.config, max_iterations=self.max_iterations,
                sync=self.sync, checkpoint_every=self.checkpoint_every,
                crash_plan=self.crash_plan, health=self.health,
            )
        if self.config.maintain:
            return MaterializedProgram(self.program, self._initial,
                                       self.config, self.max_iterations)
        return _RecomputeState(self.program, self._initial, self.config,
                               self.max_iterations)

    @property
    def started(self) -> bool:
        return self._snapshot is not None

    @property
    def generation(self) -> int:
        """Generation of the currently published snapshot."""
        return self._require_snapshot().generation

    @property
    def maintained(self) -> bool:
        """Whether commits maintain incrementally (vs recompute)."""
        return self.config.maintain

    @property
    def durable(self) -> bool:
        """Whether commits are WAL-logged and checkpointed."""
        return self.config.durable

    @property
    def recovery(self):
        """The :class:`~repro.durability.RecoveryReport` of the last
        open (``None`` for non-durable engines)."""
        state = self._state
        if isinstance(state, DurableCoordinator):
            return state.recovery
        return None

    @property
    def served(self) -> Mapping[str, int]:
        """Answers per tier over this engine's lifetime, beside
        :attr:`health` (see :attr:`repro.query.QueryEngine.served`; the
        counts carry from each generation's query engine to the next)."""
        return self._require_snapshot().engine.served

    def _require_snapshot(self) -> Snapshot:
        if self._snapshot is None:
            raise RuntimeError(
                "LiveEngine is not started; await engine.start() first"
            )
        return self._snapshot

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------

    def snapshot(self) -> Snapshot:
        """The currently published snapshot (atomic reference read)."""
        return self._require_snapshot()

    def ask(self, query: Union[Query, str],
            strategy: str = "auto") -> QueryAnswer:
        """Answer *query* against the current snapshot."""
        return self._require_snapshot().ask(query, strategy=strategy)

    async def ask_async(self, query: Union[Query, str],
                        strategy: str = "auto",
                        timeout: Optional[float] = None) -> QueryAnswer:
        """Answer *query* off-loop, under the serving deadline.

        The query runs in a worker thread against the snapshot current
        at call time, so slow queries never stall the event loop.
        *timeout* (falling back to the engine's ``query_timeout``;
        ``None`` means no deadline) bounds the wait: past it the caller
        gets :class:`~repro.exceptions.QueryTimeoutError`, the timeout
        is counted on :attr:`health`, and the abandoned thread's result
        is discarded.
        """
        snapshot = self._require_snapshot()
        deadline = timeout if timeout is not None else self.query_timeout
        work = asyncio.to_thread(snapshot.ask, query, strategy=strategy)
        if deadline is None:
            return await work
        try:
            return await asyncio.wait_for(work, deadline)
        except asyncio.TimeoutError:
            self.health.query_timeouts += 1
            raise QueryTimeoutError(
                f"Query {query} exceeded its {deadline}s serving deadline "
                f"(generation {snapshot.generation})"
            ) from None

    def subscribe(self, query: Union[Query, str]) -> Subscription:
        """Push notifications whenever *query*'s answer changes.

        The subscription's :attr:`~Subscription.rows` start at the
        current snapshot's answer; each commit that moves the answer
        queues one :class:`ResultChange`.
        """
        snapshot = self._require_snapshot()
        if isinstance(query, str):
            query = Query.parse(query)
        subscription = Subscription(self, query, snapshot.ask(query))
        self._subscriptions.append(subscription)
        return subscription

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------

    def transaction(self) -> Session:
        """A new write transaction (see :class:`~repro.serve.Session`)."""
        self._require_snapshot()
        return Session(self)

    async def _commit(self, inserts: Mapping[str, set[Row]],
                      deletes: Mapping[str, set[Row]]) -> Snapshot:
        state = self._state
        if state is None or self._lock is None:
            raise RuntimeError(
                "LiveEngine is not started; await engine.start() first"
            )
        if self._closed:
            raise RuntimeError("LiveEngine is closed")
        if (self.max_pending_commits
                and self._pending_commits >= self.max_pending_commits):
            # Overload shedding: the bounded commit queue is full, so
            # this commit is rejected *before* anything is staged or
            # logged — the caller's session stays rollback-able and the
            # WAL never sees the batch.
            self.health.commits_shed += 1
            raise OverloadError(
                f"Commit shed: {self._pending_commits} commits already "
                f"waiting (max_pending_commits={self.max_pending_commits}); "
                f"retry later or raise the bound"
            )
        self._pending_commits += 1
        try:
            async with self._lock:  # single writer
                change = await asyncio.to_thread(state.apply, inserts, deletes)
                if not change:
                    return self._require_snapshot()
                self._publish(change)
                snapshot = self._require_snapshot()
                self._notify(change, snapshot)
                return snapshot
        finally:
            self._pending_commits -= 1

    def _publish(self, change: Optional[ChangeSet] = None) -> None:
        """Swap in the new generation's snapshot.

        The snapshot's query engine derives from the previous
        generation's via :meth:`QueryEngine.with_database`, so warm
        artefacts (label indexes, demand rewrites) survive exactly when
        their per-relation dependencies were untouched by the commit;
        the maintained closures are primed directly, so every snapshot
        holds its closures and asks are served from them (membership,
        or a hash index built by the first half-bound ask) without a
        fixpoint.  Priming builds nothing, so commits pay nothing for
        it.
        """
        state = self._state
        assert state is not None
        database = state.snapshot()
        previous = self._snapshot
        if previous is None:
            engine = QueryEngine(database, self.program, self.config)
        else:
            engine = previous.engine.with_database(database)
        statistics: dict[str, EvaluationStatistics] = {}
        for predicate, maintained in state.closures.items():
            engine.prime_closure(predicate, maintained.closure)
            statistics[predicate.name] = maintained.statistics()
        self._snapshot = Snapshot(state.generation, database, engine,
                                  statistics)

    # ------------------------------------------------------------------
    # Durability lifecycle
    # ------------------------------------------------------------------

    async def checkpoint(self) -> None:
        """Persist the current state now (durable engines only).

        Runs under the commit lock so the checkpoint freezes a commit
        boundary, never a half-applied batch.
        """
        state = self._state
        if not isinstance(state, DurableCoordinator):
            raise RuntimeError(
                "checkpoint() requires a durable engine (pass path=)"
            )
        assert self._lock is not None
        async with self._lock:
            await asyncio.to_thread(state.checkpoint)

    async def close(self) -> None:
        """Flush, checkpoint and release durable storage (idempotent).

        Closes every live subscription, writes a close-time checkpoint
        (durable engines), flushes and closes the WAL, releases the
        mmap'd checkpoint and the directory lock.  Safe to call twice;
        also wired as an ``atexit`` backstop (without the checkpoint —
        the WAL already holds every commit) so an abandoned engine
        never leaves the directory locked, the log unflushed, or stale
        files behind.
        """
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self._atexit_close)
        for subscription in list(self._subscriptions):
            subscription.close()
        state = self._state
        if isinstance(state, DurableCoordinator):
            if self._lock is not None:
                async with self._lock:
                    await asyncio.to_thread(state.close)
            else:  # pragma: no cover - closed before started
                state.close()

    def _atexit_close(self) -> None:
        if self._closed:
            return
        self._closed = True
        state = self._state
        if isinstance(state, DurableCoordinator):
            try:
                state.close(checkpoint=False)
            except Exception:  # pragma: no cover - interpreter exit
                pass

    def _notify(self, change: ChangeSet, snapshot: Snapshot) -> None:
        if not self._subscriptions:
            return
        touched = change.touched()
        for subscription in list(self._subscriptions):
            if subscription.closed or subscription.query.name not in touched:
                continue
            answer = snapshot.ask(subscription.query)
            if answer.rows == subscription.rows:
                continue
            subscription._push(ResultChange(
                generation=snapshot.generation,
                query=subscription.query,
                answer=answer,
                added=answer.rows - subscription.rows,
                removed=subscription.rows - answer.rows,
            ))


def subscribe(engine: LiveEngine,
              query: Union[Query, str]) -> Subscription:
    """Module-level convenience for :meth:`LiveEngine.subscribe`."""
    return engine.subscribe(query)
