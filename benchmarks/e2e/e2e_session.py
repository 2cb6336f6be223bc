"""The measured user calls: one closed-loop client, one process.

A :class:`Session` owns one workload's scenarios and runs *rounds*.
Each round makes every call a user of the system makes, once per
scenario, with fixed repetition counts (so every count the program
reports repeats exactly from run to run):

* **closure** — ``solve(text, fresh_db)`` under the default, interned,
  costed and adaptive configs, and ``RecursiveQueryEngine().query``;
* **serving** — ``QueryEngine(fresh_db, text).ask(q)`` per adornment
  (cold), then the seeded stream on one warm engine;
* **live** — on a durable ``LiveEngine(sync="always")`` that stays up
  for the whole run: single-row delete / re-insert transactions with
  ground asks in between, then batch transactions, one subscriber;
* **crash** — the head of the same schedule through a
  ``DurableCoordinator`` on a second directory, ``abandon()`` (handles
  dropped, nothing flushed), then ``LiveEngine.open(path)``: recovery
  replays exactly those commits from the fsync'd log, and the live
  engine — same data, same kind of commits, no crash — is its twin.

Every result is checked against an oracle as it is produced (outside
the timed region); an operation that raises or fails its check counts
into ``failed``.  Timings are only ever taken around calls into the
program's public API.  The schedule is identical in every round, so
each scheduled operation has one sample per round; the reported value
of a metric is built from each operation's *median over the rounds*
(:meth:`Session.per_operation`).
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import os
import shutil
import statistics
from collections import Counter, defaultdict
from contextlib import nullcontext
from time import perf_counter
from typing import Any, Callable, Optional

from repro import (
    Database,
    DurableCoordinator,
    EvaluationStatistics,
    LiveEngine,
    QueryEngine,
    RecursiveQueryEngine,
    solve,
)
from repro.core.planner import Strategy
from repro.query import Query
from repro.engine.reference import seminaive_closure_interpreted
from repro.engine.seminaive import evaluate_exit_rules
from repro.datalog.parser import parse_program

from e2e_trace import Tracer
from e2e_workloads import WORKLOADS, AnswerOracle, Scenario, build

#: metric, ``solve`` config, root span.
SOLVE_CONFIGS = (
    ("solve_s", None, "e2e:solve"),
    ("solve_interned_s", "interned", "e2e:solve_interned"),
    ("solve_costed_s", "costed", "e2e:solve_costed"),
    ("solve_adaptive_s", "adaptive", "e2e:solve_adaptive"),
)

_COUNTERS = ("derivations", "duplicates", "iterations")


def counters(stats: EvaluationStatistics) -> tuple[int, ...]:
    """The Theorem-3.1 triple every execution path must agree on."""
    return tuple(getattr(stats, name) for name in _COUNTERS)


def set_up(workload: str, seed: int, size: str) -> list[Scenario]:
    """Generate inputs, build databases, compute the expected closures."""
    scenarios = build(workload, seed, size)
    mix = WORKLOADS[workload].mixes["tiny" if size == "tiny" else "full"]
    for scenario in scenarios:
        stats = EvaluationStatistics()
        closure = solve(scenario.program, scenario.database(),
                        scenario.predicate, statistics=stats)
        scenario.prepare(closure, mix)
        scenario.expected = stats
    return scenarios


class Session:
    """One workload's rounds, samples and oracle tally."""

    def __init__(self, scenarios: list[Scenario], workdir: str):
        self.scenarios = scenarios
        self.workdir = workdir
        #: Set for the traced round: user calls become ``e2e:*`` spans.
        self.tracer: Optional[Tracer] = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: Per round: operation name -> its latencies in schedule order.
        #: The schedule is the same every round, so position *i* of a
        #: list is the same operation in every round.
        self.rounds: list[dict[str, list[float]]] = []
        self.current: dict[str, list[float]] = defaultdict(list)
        self.tiers: Counter[str] = Counter()
        #: Last statistics seen per (scenario, metric), for the layer table.
        self.statistics: dict[tuple[str, str], EvaluationStatistics] = {}
        self.recoveries: list[Any] = []
        #: Seconds inside timed ``e2e:*`` calls so far (trace overhead).
        self.timed_seconds = 0.0
        #: Cold ``LiveEngine(...).start()`` seconds, summed over scenarios.
        self.start_seconds = 0.0
        self.oracles = {scenario.name: AnswerOracle(scenario.closure)
                        for scenario in scenarios}
        self.live: dict[str, LiveEngine] = {}
        self.subscriptions: dict[str, Any] = {}
        self.loop = asyncio.new_event_loop()

    # ------------------------------------------------------------------
    # Samples
    # ------------------------------------------------------------------

    def per_operation(self, name: str) -> list[float]:
        """Each scheduled operation's median over the rounds.

        One stalled fsync or one collector pass lands in one round of
        one operation and drops out here, while the mix of cheap and
        expensive operations (a DRed delete costs 2 ms or 200 ms
        depending on the row) is kept whole: the end-to-end metrics are
        sums or means of this list, never a median across operations.
        """
        return [statistics.median(column)
                for column in zip(*(round[name] for round in self.rounds))]

    def pooled(self, name: str) -> list[float]:
        """Every latency of operation *name*, all rounds together."""
        return [seconds for round in self.rounds for seconds in round[name]]

    def end_to_end(self) -> dict[str, float]:
        """The end-to-end timing metrics of the rounds run so far."""
        total = {name: sum(self.per_operation(name)) for name in (
            "solve_s", "solve_interned_s", "solve_costed_s",
            "solve_adaptive_s", "strategy_query_s", "recover_s")}
        mean = {f"{name}_s": statistics.fmean(self.per_operation(name))
                for name in ("ask_cold", "ask_warm", "commit_insert",
                             "commit_delete", "batch_commit", "live_ask")}
        singles = (self.per_operation("commit_insert")
                   + self.per_operation("commit_delete"))
        return {**total, **mean, "commits_per_s": len(singles) / sum(singles)}

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    def span(self, name: str) -> Any:
        return self.tracer.span(name) if self.tracer else nullcontext()

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)

    def timed(self, root: str, name: str, call: Callable[[], Any],
              settle: bool = False) -> Any:
        """Time one call into the program and record it under *name*.

        An exception is a failed operation, not a crash of the run.
        With *settle* the cyclic collector runs first (untimed), so the
        call starts from the same collector state every time: the
        collections it triggers itself stay in the measurement, but at
        the same points, instead of wherever the previous call left the
        generation counters.
        """
        result = None
        if settle:
            gc.collect()
        with self.span(root):
            start = perf_counter()
            try:
                result = call()
            except Exception as error:  # counted, reported, not hidden
                self.check(False, f"{root} raised {error!r}")
            seconds = perf_counter() - start
        self._record(root, name, seconds)
        return result

    async def timed_async(self, root: str, name: str,
                          call: Callable[[], Any], settle: bool = False
                          ) -> Any:
        result = None
        if settle:
            gc.collect()
        with self.span(root):
            start = perf_counter()
            try:
                result = await call()
            except Exception as error:
                self.check(False, f"{root} raised {error!r}")
            seconds = perf_counter() - start
        self._record(root, name, seconds)
        return result

    def _record(self, root: str, name: str, seconds: float) -> None:
        self.current[name].append(seconds)
        if root.startswith("e2e:"):
            self.timed_seconds += seconds

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------

    def warm_up(self) -> None:
        """Fill plan caches and the planner catalog; start the engines."""
        self.closure_round()
        self.serving_round()
        self.current = defaultdict(list)
        self.tiers.clear()
        self.loop.run_until_complete(self._start_engines())

    def round(self) -> None:
        self.closure_round()
        self.serving_round()
        self.loop.run_until_complete(self._live_round())
        self.rounds.append(self.current)
        self.current = defaultdict(list)

    def closure_round(self) -> None:
        for scenario in self.scenarios:
            for metric, config, root in SOLVE_CONFIGS:
                stats = EvaluationStatistics()
                closure = self.timed(root, metric, lambda: solve(
                    scenario.program, scenario.database(), scenario.predicate,
                    config, stats), settle=True)
                self.statistics[scenario.name, metric] = stats
                self.check(
                    closure is not None
                    and closure.rows == scenario.closure.rows
                    and counters(stats) == counters(scenario.expected),
                    f"{scenario.name}: {metric} rows or Theorem-3.1 counters "
                    f"differ from the default solve")
            result = self.timed(
                "e2e:strategy_query", "strategy_query_s",
                lambda: RecursiveQueryEngine().query(
                    scenario.program, scenario.predicate, scenario.database(),
                    scenario.selection), settle=True)
            if result is not None:
                self._check_strategy(scenario, result)

    def _check_strategy(self, scenario: Scenario, result: Any) -> None:
        expected = scenario.closure
        if scenario.selection is not None:
            expected = scenario.selection.apply(expected)
        strategy = result.plan.strategy
        self.statistics[scenario.name, "strategy_query_s"] = result.statistics
        self.check(result.relation.rows == expected.rows,
                   f"{scenario.name}: {strategy.value} answer differs from "
                   f"the direct closure")
        if strategy in (Strategy.DECOMPOSED, Strategy.SEPARABLE):
            # Theorem 3.1: the commutativity-driven rewrites never derive
            # more duplicates than direct evaluation.
            self.check(
                result.statistics.duplicates <= scenario.expected.duplicates,
                f"{scenario.name}: {strategy.value} derived more duplicates "
                f"than DIRECT")

    def serving_round(self) -> None:
        for scenario in self.scenarios:
            oracle = self.oracles[scenario.name]
            for query in scenario.cold_queries:
                answer = self.timed(
                    "e2e:ask_cold", "ask_cold", lambda: QueryEngine(
                        scenario.database(), scenario.program).ask(query),
                    settle=True)
                self._check_answer(scenario, oracle, query, answer)
            engine = QueryEngine(scenario.database(), scenario.program)
            # One ask per adornment builds what a long-lived engine has
            # already built: label indexes, demand rewrites, the closure.
            for query in (*scenario.cold_queries[:3], *scenario.stream[-1:]):
                engine.ask(query)
            for query in scenario.stream:
                answer = self.timed("e2e:ask", "ask_warm",
                                    lambda: engine.ask(query))
                self._check_answer(scenario, oracle, query, answer)
                if answer is not None:
                    self.tiers[answer.strategy] += 1

    def _check_answer(self, scenario: Scenario, oracle: AnswerOracle,
                      query: Any, answer: Any) -> None:
        self.check(answer is not None
                   and answer.rows == oracle.expected(query),
                   f"{scenario.name}: {query} differs from the filtered "
                   f"closure")

    # ------------------------------------------------------------------
    # Live updates and crash recovery
    # ------------------------------------------------------------------

    def path_for(self, scenario: Scenario, kind: str) -> str:
        return os.path.join(self.workdir, f"{kind}-{scenario.name}")

    async def _start_engines(self) -> None:
        for scenario in self.scenarios:
            engine = await self.timed_async(
                "probe:start", "start", LiveEngine(
                    scenario.program, scenario.database(),
                    path=self.path_for(scenario, "live"), sync="always").start)
            self.live[scenario.name] = engine
            # A stored-relation query over the first scheduled row's key:
            # its answer moves with that row's delete and re-insert on
            # every workload, whatever tier serves the derived predicate.
            stored = scenario.relations[scenario.mutable]
            self.subscriptions[scenario.name] = engine.subscribe(Query.of(
                stored.name, scenario.singles[0][0],
                *[None] * (stored.arity - 1)))
        self.start_seconds = sum(self.current.pop("start"))

    async def _commit(self, engine: LiveEngine, kind: str, name: str, *,
                      insert: tuple = (), delete: tuple = ()) -> None:
        async def transaction() -> None:
            async with engine.transaction() as session:
                if delete:
                    session.delete(name, *delete)
                if insert:
                    session.insert(name, *insert)
        await self.timed_async("e2e:commit", kind, transaction)

    async def _live_round(self) -> None:
        for scenario in self.scenarios:
            engine = self.live[scenario.name]
            subscription = self.subscriptions[scenario.name]
            oracle = self.oracles[scenario.name]
            name = scenario.mutable
            asks = iter(scenario.live_queries)
            per_commit = len(scenario.live_queries) // len(scenario.singles)
            for row in scenario.singles:
                for kind, change in (("commit_delete", {"delete": (row,)}),
                                     ("commit_insert", {"insert": (row,)})):
                    await self._commit(engine, kind, name, **change)
                    if row in scenario.crash_singles:
                        # The same change goes through a bare coordinator
                        # below; the pair isolates the serving layer's share.
                        self.current["commit_twin"].append(
                            self.current[kind][-1])
                    exit_time = perf_counter()
                    if subscription.pending:
                        await subscription.__anext__()
                        self.current["notify"].append(
                            perf_counter() - exit_time)
                for query in itertools.islice(asks, per_commit):
                    answer = self.timed("e2e:live_ask", "live_ask",
                                        lambda: engine.ask(query))
                    self._check_answer(scenario, oracle, query, answer)
            for batch in scenario.batches:
                for change in ({"delete": tuple(batch)},
                               {"insert": tuple(batch)}):
                    await self._commit(engine, "batch_commit", name, **change)
            while subscription.pending:
                await subscription.__anext__()
            await self._crash_and_recover(scenario, engine)

    async def _crash_and_recover(self, scenario: Scenario,
                                 twin: LiveEngine) -> None:
        """Commit durably, crash, reopen, compare with the live engine."""
        path = self.path_for(scenario, "crash")
        name = scenario.mutable
        coordinator = DurableCoordinator.open(
            path, scenario.program, scenario.database(), sync="always")
        records = 0
        for row in scenario.crash_singles:
            for change in ({"deletes": {name: [row]}},
                           {"inserts": {name: [row]}}):
                self.timed("probe:coordinator_apply", "coordinator_apply",
                           lambda: coordinator.apply(**change))
                records += 1
        coordinator.abandon()
        recovered = await self.timed_async(
            "e2e:recover", "recover_s", lambda: LiveEngine.open(path),
            settle=True)
        if recovered is None:
            return
        report = recovered.recovery
        self.recoveries.append(report)
        self.check(report.records_replayed == records
                   and report.records_truncated == 0
                   and report.recovered_generation
                   == report.checkpoint_generation + records,
                   f"{scenario.name}: recovery replayed "
                   f"{report.records_replayed} of {records} acknowledged "
                   f"commits")
        self.check(_fingerprint(recovered, scenario)
                   == _fingerprint(twin, scenario),
                   f"{scenario.name}: recovered state differs from the "
                   f"uncrashed twin")
        # Replay leaves the log in place (a close right after recovery
        # has nothing new to fold), so checkpoint explicitly: the next
        # round's suffix is then exactly that round's commits.
        await recovered.checkpoint()
        await recovered.close()

    def finish(self) -> None:
        """Final oracles, then close every engine and remove the files."""
        try:
            for scenario in self.scenarios:
                engine = self.live.get(scenario.name)
                if engine is None:
                    continue
                snapshot = engine.snapshot()
                maintained = snapshot.statistics(scenario.predicate)
                cold = scenario.expected
                self.check(
                    snapshot.closure(scenario.predicate).rows
                    == scenario.closure.rows
                    and snapshot.relation(scenario.mutable).rows
                    == scenario.relations[scenario.mutable].rows
                    and (maintained.derivations, maintained.duplicates,
                         maintained.initial_size, maintained.result_size)
                    == (cold.derivations, cold.duplicates, cold.initial_size,
                        cold.result_size),
                    f"{scenario.name}: maintained closure or counters differ "
                    f"from a cold solve after the update cycle")
                self.loop.run_until_complete(engine.close())
        finally:
            self.loop.close()
            shutil.rmtree(self.workdir, ignore_errors=True)


def _fingerprint(engine: LiveEngine, scenario: Scenario) -> tuple:
    snapshot = engine.snapshot()
    return (
        snapshot.relation(scenario.mutable).rows,
        snapshot.closure(scenario.predicate).rows,
        snapshot.statistics(scenario.predicate).as_dict(),
    )


def check_reference(workload: str, seed: int, session: Session) -> None:
    """Cross-check the compiled engine against the interpreted reference.

    Runs on the ``small`` instance of the same generator (the reference
    re-plans and re-indexes on every rule application, so the full size
    would dominate the run): rows and the Theorem-3.1 counters of the
    default solve must equal the seed engine's.
    """
    for scenario in build(workload, seed, "small"):
        database = scenario.database()
        program = parse_program(scenario.program)
        predicate = next(found for found in program.idb_predicates
                         if found.name == scenario.predicate)
        recursion = program.linear_recursion_of(predicate)
        reference = EvaluationStatistics()
        expected = seminaive_closure_interpreted(
            recursion.recursive_rules,
            evaluate_exit_rules(recursion, database), database, reference)
        stats = EvaluationStatistics()
        closure = solve(program, Database(dict(database.relations)),
                        predicate, statistics=stats)
        session.check(
            closure.rows == expected.rows
            and counters(stats) == counters(reference),
            f"{scenario.name}: compiled solve differs from engine.reference "
            f"on the small instance")
