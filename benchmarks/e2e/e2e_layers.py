"""The traced pass: per-layer numbers, measured from outside.

Two sources, both recorded as spans:

* the *traced round* — one ordinary round (:mod:`e2e_session`) run with
  the layer wrappers of :mod:`e2e_trace` installed, so the time a
  ``solve`` spends building hash indexes or decoding interned rows is
  read off the spans under that call's root;
* *probes* — direct calls into one layer's public functions on the
  workload's own inputs (``parse_program``, ``plan_program``,
  ``compile_rule``, ``seminaive_closure``, ``build_labels``,
  ``MaterializedProgram.apply``, ``DurableLog.append`` ...), for what a
  user call never isolates.

Times are summed over the workload's scenarios unless the name says
``p50``/``p95``/``p99`` (pooled samples); counts are summed; ratios are
ratios of the sums.
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

from repro import DurableCoordinator, DurableLog, MaterializedProgram, QueryEngine
from repro.core.analysis import RecursionAnalyzer
from repro.core.engine import RecursiveQueryEngine
from repro.datalog.parser import parse_program
from repro.engine.parallel import EvalConfig
from repro.engine.plan import clear_plan_cache, compile_rule
from repro.engine.seminaive import evaluate_exit_rules, seminaive_closure
from repro.engine.statistics import EvaluationStatistics
from repro.exceptions import NotApplicableError
from repro.planner import plan_program, planner_catalog
from repro.query import Query, build_labels, magic_rewrite

from e2e_session import Session
from e2e_trace import Tracer
from e2e_workloads import Scenario


def percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


class Probes:
    """Accumulates the per-layer metrics of one traced run."""

    def __init__(self, session: Session, tracer: Tracer):
        self.session = session
        self.tracer = tracer
        self.sums: dict[str, float] = defaultdict(float)
        self.pools: dict[str, list[float]] = defaultdict(list)

    def time(self, metric: str, call: Callable[[], Any], pool: bool = False
             ) -> Any:
        """Run *call* under a probe span; add or pool its seconds."""
        with self.tracer.span(f"probe:{metric}"):
            start = perf_counter()
            result = call()
            seconds = perf_counter() - start
        if pool:
            self.pools[metric].append(seconds)
        else:
            self.sums[metric] += seconds
        return result

    # ------------------------------------------------------------------
    # Probes, one scenario at a time
    # ------------------------------------------------------------------

    def run(self, scenario: Scenario) -> None:
        program = self.time("datalog.parse_s",
                            lambda: parse_program(scenario.program))
        self.sums["datalog.rules"] += len(program.rules)
        predicate = next(found for found in program.idb_predicates
                         if found.name == scenario.predicate)
        recursion = program.linear_recursion_of(predicate)
        self._core(scenario, recursion)
        self._engine(scenario, recursion)
        self._query(scenario, recursion)
        self._ivm(scenario)
        self._durability(scenario)
        # Last: these clear the process-wide catalog and plan cache.
        self._planner(scenario, recursion)

    def _core(self, scenario: Scenario, recursion: Any) -> None:
        report = self.time("core.analyze_s", lambda: RecursionAnalyzer()
                           .analyze(recursion, scenario.selection))
        engine = RecursiveQueryEngine()
        planned = self.time("core.execute_s", lambda: engine.execute(
            report.plan, scenario.database()))
        baseline = self.time("core.baseline_s", lambda: engine.baseline(
            scenario.program, scenario.predicate, scenario.database(),
            scenario.selection))
        self.session.check(
            planned.relation.rows == baseline.relation.rows,
            f"{scenario.name}: query rows differ from baseline rows")
        self.sums["core.duplicates_planned"] += planned.statistics.duplicates
        self.sums["core.duplicates_baseline"] += baseline.statistics.duplicates

    def _engine(self, scenario: Scenario, recursion: Any) -> None:
        rules = recursion.recursive_rules
        database = scenario.database()
        initial = evaluate_exit_rules(recursion, database)
        self.time("storage.intern_s", scenario.database().intern_all)
        database.intern_all()
        self.sums["storage.domain_size"] += len(database.domain())
        workers = min(2, os.cpu_count() or 1)
        legs = [
            ("engine.fixpoint_s", EvalConfig()),
            ("engine.fixpoint_batch_s", EvalConfig(executor="batch")),
            ("engine.fixpoint_interned_s",
             EvalConfig(executor="batch", intern=True)),
        ]
        if scenario.parallel:
            legs += [
                (f"engine.parallel.{backend}_s",
                 EvalConfig(executor="batch", intern=True, backend=backend,
                            max_workers=workers))
                for backend in ("threads", "processes")
            ]
        for metric, config in legs:
            if "parallel" not in metric:
                # Untimed first run: builds this executor's indexes.
                seminaive_closure(rules, initial, database, config=config)
            stats = EvaluationStatistics()
            closure = self.time(metric, lambda: seminaive_closure(
                rules, initial, database, stats, config=config))
            self.session.check(
                closure.rows == scenario.closure.rows,
                f"{scenario.name}: {metric} closure differs")
            if metric == "engine.fixpoint_s":
                for name, value in (
                        ("derivations", stats.derivations),
                        ("duplicates", stats.duplicates),
                        ("iterations", stats.iterations),
                        ("rows_probed", stats.joins.rows_probed),
                        ("result_rows", stats.result_size)):
                    self.sums[f"engine.{name}"] += value
            if "parallel" in metric:
                health = stats.health
                self.sums["engine.parallel.degradations"] += len(
                    health.degradations)
                self.sums["engine.parallel.retries"] += (
                    health.task_retries + health.iteration_retries)
        clear_plan_cache()
        for rule in (*recursion.exit_rules, *rules):
            self.time("engine.plan.compile_s",
                      lambda: compile_rule(rule, database))

    def _query(self, scenario: Scenario, recursion: Any) -> None:
        database = scenario.database()
        labels = self.time("query.labels_build_s",
                           lambda: build_labels(database, scenario.graph))
        edges = sorted(scenario.relations[scenario.graph].rows)
        step = max(1, len(edges) // 64)
        for (source, _), (_, target) in zip(edges[::step], edges[step // 2::step]):
            self.time("query.labels_lookup_p50_s",
                      lambda: labels.reaches(source, target), pool=True)
        engine = QueryEngine(database, scenario.program)
        oracle = self.session.oracles[scenario.name]
        for query in scenario.cold_queries[:3]:
            try:
                magic = self.time("query.magic_rewrite_s", lambda: magic_rewrite(
                    recursion, query.bound_positions,
                    reserved_names=database.names()))
            except NotApplicableError:
                continue
            answer = self.time("query.ask_magic_p50_s", lambda: engine.ask(
                query, strategy="magic"), pool=True)
            self.session.check(answer.rows == oracle.expected(query),
                               f"{scenario.name}: forced magic {query} differs")
            if query.bound_positions == scenario.cold_queries[1].bound_positions:
                values = tuple(query.atom.arguments[position].value
                               for position in magic.bound_positions)
                self.time("query.magic_solve_s",
                          lambda: magic.solve(values, database))
                # What the rewrite is up against: materialising the
                # same program (the traced round's default solve).
                index = self.session.scenarios.index(scenario)
                self.sums["magic_base_seconds"] += (
                    self.session.rounds[-1]["solve_s"][index])
        for query in scenario.cold_queries[:3]:
            engine.ask(query, strategy="closure")
            answer = self.time("query.ask_closure_p50_s", lambda: engine.ask(
                query, strategy="closure"), pool=True)
            self.session.check(answer.rows == oracle.expected(query),
                               f"{scenario.name}: forced closure {query} differs")
        stored = scenario.relations[scenario.mutable]
        for row in scenario.singles:
            query = Query.of(stored.name, row[0], *[None] * (stored.arity - 1))
            self.time("query.ask_edb_p50_s", lambda: engine.ask(query),
                      pool=True)

    def _ivm(self, scenario: Scenario) -> None:
        name = scenario.mutable
        materialized = self.time("ivm.build_s", lambda: MaterializedProgram(
            scenario.program, scenario.database()))

        def apply(metric: str, **change: Any) -> None:
            changes = self.time(metric, lambda: materialized.apply(**change),
                                pool=True)
            self.sums["ivm.changed_rows"] += sum(
                len(delta.added) + len(delta.removed)
                for delta in changes.predicates.values())

        for row in scenario.singles:
            self.time("ivm.stage_s",
                      lambda: materialized.stage(deletes={name: [row]}),
                      pool=True)
            apply("ivm.apply_delete_p50_s", deletes={name: [row]})
            apply("ivm.apply_insert_p50_s", inserts={name: [row]})
        for batch in scenario.batches:
            apply("ivm.apply_batch_s", deletes={name: batch})
            apply("ivm.apply_batch_s", inserts={name: batch})
        self.session.check(
            materialized.closure(scenario.predicate).rows
            == scenario.closure.rows,
            f"{scenario.name}: bare maintenance drifted from the closure")

    def _durability(self, scenario: Scenario) -> None:
        name = scenario.mutable
        for metric, sync in (("durability.wal_append_p50_s", "always"),
                             ("durability.wal_append_nosync_p50_s", "none")):
            path = os.path.join(self.session.workdir,
                                f"wal-{sync}-{scenario.name}.log")
            log = DurableLog(path, sync=sync)
            before = os.path.getsize(path)
            rows = scenario.singles * 4
            for generation, row in enumerate(rows, start=1):
                # The payload a single-row delete commit logs.
                payload = ({name: frozenset([row])}, {})
                self.time(metric, lambda: log.append(generation, payload),
                          pool=True)
            log.close()
            if sync == "always":
                self.sums["wal_bytes"] += os.path.getsize(path) - before
                self.sums["wal_records"] += len(rows)
        # The crash directory was closed cleanly by the last round: its
        # WAL suffix is empty, so this open is the mmap'd checkpoint alone.
        path = self.session.path_for(scenario, "crash")
        coordinator = self.time("durability.open_clean_s",
                                lambda: DurableCoordinator.open(path))
        row = scenario.singles[0]
        coordinator.apply(deletes={name: [row]})
        coordinator.apply(inserts={name: [row]})
        self.time("durability.checkpoint_write_s", coordinator.checkpoint)
        self.sums["durability.checkpoint_bytes"] += os.path.getsize(
            coordinator.store.checkpoint_path())
        coordinator.close()

    def _planner(self, scenario: Scenario, recursion: Any) -> None:
        database = scenario.database()
        initial = evaluate_exit_rules(recursion, database)
        for mode in ("greedy", "costed", "adaptive"):
            # Cold: no remembered orders, no cached plans — the search
            # itself, which is what a first solve pays.
            planner_catalog().clear()
            clear_plan_cache()
            self.time(f"planner.plan_{mode}_s", lambda: plan_program(
                recursion.recursive_rules, database,
                EvalConfig(planner=mode), EvaluationStatistics(), initial))

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------

    def metrics(self, cold_pass_seconds: float, untraced: float,
                traced: float) -> dict[str, float]:
        """Every per-layer metric, from probes, spans and the session."""
        session, tracer = self.session, self.tracer
        sums, pools, pooled = self.sums, self.pools, session.pooled
        values: dict[str, float] = {
            name: value for name, value in sums.items() if "." in name}
        for name, pool in pools.items():
            values[name] = statistics.median(pool)

        values["core.dup_ratio"] = (
            sums["core.duplicates_planned"]
            / max(1, sums["core.duplicates_baseline"]))
        values["planner.cold_pass_costed_s"] = cold_pass_seconds
        for mode, metric in (("greedy", "solve_s"), ("costed", "solve_costed_s"),
                             ("adaptive", "solve_adaptive_s")):
            values[f"planner.rows_probed_{mode}"] = sum(
                session.statistics[scenario.name, metric].joins.rows_probed
                for scenario in session.scenarios)
        values["planner.replans"] = sum(
            len(session.statistics[scenario.name, "solve_adaptive_s"]
                .planner.replans)
            for scenario in session.scenarios)

        values["storage.hash_index_build_s"] = tracer.seconds_under(
            "storage:Database.index", "e2e:solve")
        values["storage.int_index_build_s"] = tracer.seconds_under(
            "storage:Database.interned_index", "e2e:solve_interned")
        values["storage.decode_s"] = tracer.seconds_under(
            "storage:PackedClosure.freeze", "e2e:solve_interned")
        values["engine.useful_ratio"] = (
            sums["engine.result_rows"] / max(1, sums["engine.derivations"]))

        values["query.ask_p50_s"] = statistics.median(pooled("ask_warm"))
        values["query.ask_p99_s"] = percentile(pooled("ask_warm"), 0.99)
        for tier in ("edb", "labels", "magic", "closure"):
            values[f"query.tier_{tier}"] = session.tiers[tier]
        values["query.magic_vs_closure"] = (
            sums["query.magic_solve_s"] / sums["magic_base_seconds"])

        values["durability.wal_bytes_per_commit"] = (
            sums["wal_bytes"] / sums["wal_records"])
        values["durability.coordinator_apply_p50_s"] = statistics.median(
            pooled("coordinator_apply"))
        replayed = sum(report.records_replayed
                       for report in session.recoveries)
        recoveries = max(1, len(session.recoveries))
        values["durability.records_replayed"] = replayed / recoveries
        values["durability.records_truncated"] = sum(
            report.records_truncated for report in session.recoveries)
        # The traced round's recoveries against the clean opens.
        values["durability.replay_per_record_s"] = (
            (sum(session.rounds[-1]["recover_s"])
             - sums["durability.open_clean_s"])
            / max(1, replayed / len(session.rounds)))

        commits = pooled("commit_delete") + pooled("commit_insert")
        values["serve.start_s"] = session.start_seconds
        values["serve.commit_overhead_p50_s"] = statistics.median(
            commit - apply for commit, apply in zip(
                pooled("commit_twin"), pooled("coordinator_apply")))
        values["serve.commit_insert_p50_s"] = statistics.median(
            pooled("commit_insert"))
        values["serve.commit_delete_p50_s"] = statistics.median(
            pooled("commit_delete"))
        values["serve.commit_p95_s"] = percentile(commits, 0.95)
        values["serve.notify_p50_s"] = statistics.median(pooled("notify"))
        values["serve.ask_p50_s"] = statistics.median(pooled("live_ask"))
        values["serve.ask_p99_s"] = percentile(pooled("live_ask"), 0.99)
        values["serve.shed"] = sum(engine.health.commits_shed
                                   for engine in session.live.values())

        table = tracer.layer_table()
        values["layers.unattributed_frac"] = (
            table.get("e2e", 0.0) / sum(table.values()))
        values["trace_overhead_frac"] = (traced - untraced) / untraced
        return values
