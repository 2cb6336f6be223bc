"""Tests for the column-oriented batch executor (repro.engine.vectorized).

The correctness bar: ``EvalConfig(executor="batch")`` must produce the
identical result relation, identical derivation/duplicate statistics,
and identical low-level join counters as the slot executor, on every
scenario — and repeated batch runs must be byte-identical (executor
determinism).
"""

from __future__ import annotations

import pytest

from test_parallel import SCENARIOS, scenario_layered_tc, stats_signature

from repro.datalog.parser import parse_rule
from repro.engine.decomposed import decomposed_closure
from repro.engine.naive import naive_closure
from repro.engine.parallel import BACKENDS, EXECUTORS, EvalConfig
from repro.engine.plan import compile_rule
from repro.engine.seminaive import seminaive_closure, solve_linear_recursion
from repro.engine.separable import separable_evaluate
from repro.engine.statistics import EvaluationStatistics
from repro.engine.vectorized import execute_batch
from repro.exceptions import EvaluationError
from repro.storage.database import Database
from repro.storage.index import HashIndex
from repro.storage.relation import Relation
from repro.storage.selection import EqualitySelection


def batch_config() -> EvalConfig:
    return EvalConfig(executor="batch")


def run_seminaive(scenario: str, config: EvalConfig | None):
    rules, database, initial = SCENARIOS[scenario]()
    database = Database(dict(database.relations))
    statistics = EvaluationStatistics()
    relation = seminaive_closure(rules, initial, database, statistics,
                                 config=config)
    return relation, statistics


def full_signature(statistics: EvaluationStatistics):
    """Everything, including the low-level join counters."""
    return (stats_signature(statistics), statistics.joins.rows_probed,
            statistics.joins.bindings_extended)


# ----------------------------------------------------------------------
# Batch vs rows parity
# ----------------------------------------------------------------------


class TestBatchParity:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_serial_batch_matches_rows_exactly(self, scenario):
        rows_rel, rows_stats = run_seminaive(scenario, None)
        batch_rel, batch_stats = run_seminaive(scenario, batch_config())
        assert batch_rel.rows == rows_rel.rows
        # Bit-identical statistics, probe counters included.
        assert batch_stats.as_dict() == rows_stats.as_dict()
        assert full_signature(batch_stats) == full_signature(rows_stats)

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_three_batch_runs_identical(self, scenario):
        outcomes = []
        for _ in range(3):
            relation, statistics = run_seminaive(scenario, batch_config())
            canonical = repr(relation.sorted_rows()).encode()
            outcomes.append((canonical, full_signature(statistics)))
        assert outcomes[0] == outcomes[1] == outcomes[2]


# ----------------------------------------------------------------------
# Round-trip through all four fixpoint drivers
# ----------------------------------------------------------------------


class TestDriverRoundTrip:
    def test_naive_batch_matches_rows(self):
        rules, database, initial = scenario_layered_tc()

        def run(config):
            stats = EvaluationStatistics()
            relation = naive_closure(
                rules, initial, Database(dict(database.relations)), stats,
                config=config,
            )
            return relation, stats

        rows_rel, rows_stats = run(None)
        batch_rel, batch_stats = run(batch_config())
        assert batch_rel.rows == rows_rel.rows
        assert batch_stats.as_dict() == rows_stats.as_dict()

    def test_decomposed_batch_matches_rows(self, tc_rules):
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

        rows_rel, rows_stats = run(None)
        batch_rel, batch_stats = run(batch_config())
        assert batch_rel.rows == rows_rel.rows
        assert batch_stats.as_dict() == rows_stats.as_dict()

    def test_separable_batch_matches_rows(self):
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

        rows_rel, rows_stats = run(None)
        batch_rel, batch_stats = run(batch_config())
        assert batch_rel.rows == rows_rel.rows
        assert batch_stats.as_dict() == rows_stats.as_dict()

    def test_solve_linear_recursion_batch_covers_exit_rules(self):
        from repro.datalog.atoms import Predicate
        from repro.datalog.programs import LinearRecursion

        recursion = LinearRecursion(
            Predicate("path", 2),
            (parse_rule("path(X, Y) :- edge(X, Z), path(Z, Y)."),),
            (parse_rule("path(X, Y) :- base(X, Y)."),),
        )
        edge = Relation.of("edge", 2, [(i, i + 1) for i in range(6)])
        base = Relation.of("base", 2, [(i, i) for i in range(7)])

        def run(config):
            stats = EvaluationStatistics()
            relation = solve_linear_recursion(
                recursion, Database.of(edge, base), stats, config=config,
            )
            return relation, stats

        rows_rel, rows_stats = run(None)
        batch_rel, batch_stats = run(batch_config())
        assert batch_rel.rows == rows_rel.rows
        assert batch_stats.as_dict() == rows_stats.as_dict()


# ----------------------------------------------------------------------
# Rule shapes the fixpoint scenarios do not reach
# ----------------------------------------------------------------------


def pairs_to_multiset(pairs):
    return sorted((row, count) for row, count in pairs)


def rows_to_multiset(emissions):
    from collections import Counter

    return sorted(Counter(emissions).items())


class TestRuleShapes:
    def assert_batch_matches_rows(self, rule_text, database, overrides=None):
        from repro.engine.statistics import JoinCounters

        rule = parse_rule(rule_text)
        plan = compile_rule(rule, database, overrides)
        rows_counters = JoinCounters()
        emissions = plan.execute(database, overrides, counters=rows_counters)
        batch_counters = JoinCounters()
        pairs = execute_batch(plan, database, overrides,
                              counters=batch_counters)
        assert pairs_to_multiset(pairs) == rows_to_multiset(emissions)
        assert batch_counters == rows_counters
        return pairs

    def test_fact_rule(self):
        pairs = self.assert_batch_matches_rows("p(1, 2).", Database.of())
        assert pairs == [((1, 2), 1)]

    def test_equality_only_body(self):
        database = Database.of(Relation.of("q", 1, [(3,), (4,)]))
        self.assert_batch_matches_rows("p(X, Y) :- q(X), Y = 7.", database)
        self.assert_batch_matches_rows("p(X) :- q(X), X = 3.", database)

    def test_repeated_variable_within_atom(self):
        q = Relation.of("q", 2, [(1, 1), (1, 2), (2, 2)])
        database = Database.of(q)
        pairs = self.assert_batch_matches_rows("p(X) :- q(X, X).", database)
        assert {row for row, _ in pairs} == {(1,), (2,)}

    def test_constant_in_body_atom(self):
        q = Relation.of("q", 2, [(1, 5), (2, 5), (3, 6)])
        database = Database.of(q)
        pairs = self.assert_batch_matches_rows("p(X) :- q(X, 5).", database)
        assert {row for row, _ in pairs} == {(1,), (2,)}

    def test_duplicate_emissions_collapse(self):
        # Projection makes two q rows emit the same head tuple.
        q = Relation.of("q", 2, [(1, 5), (1, 6)])
        database = Database.of(q)
        pairs = self.assert_batch_matches_rows("p(X) :- q(X, Y).", database)
        assert pairs == [((1,), 2)]

    def test_variable_equality_filter(self):
        q = Relation.of("q", 2, [(1, 1), (1, 2), (3, 3)])
        database = Database.of(q)
        pairs = self.assert_batch_matches_rows(
            "p(X, Y) :- q(X, Y), X = Y.", database
        )
        assert {row for row, _ in pairs} == {(1, 1), (3, 3)}

    def test_cartesian_product_multiplicities(self):
        q = Relation.of("q", 1, [(1,), (2,)])
        r = Relation.of("r", 1, [(7,), (8,), (9,)])
        database = Database.of(q, r)
        pairs = self.assert_batch_matches_rows("p(X) :- q(X), r(Y).", database)
        assert pairs_to_multiset(pairs) == [((1,), 3), ((2,), 3)]

    def test_none_is_a_legal_column_value(self):
        q = Relation.of("q", 2, [(None, 1), (None, None), (2, None)])
        database = Database.of(q)
        pairs = self.assert_batch_matches_rows("p(X) :- q(X, X).", database)
        assert {row for row, _ in pairs} == {(None,)}

    def test_unsafe_equality_raises_only_when_reached(self):
        rule = parse_rule("p(X) :- q(X), Y = Z.")
        empty = Database.of(Relation.of("q", 1, []))
        plan = compile_rule(rule, empty)
        assert execute_batch(plan, empty) == []
        populated = Database.of(Relation.of("q", 1, [(1,)]))
        plan = compile_rule(rule, populated)
        with pytest.raises(EvaluationError, match="no bound side"):
            execute_batch(plan, populated)

    def test_unsafe_equality_with_live_head_variable(self):
        # X is bound only by the unsafe equality, so its slot is live
        # for the head but never defined by any step; the batch executor
        # must not try to materialise it as a column (regression test).
        rule = parse_rule("p(X) :- g1(Z), e2(0, Z), W = X.")
        populated = Database.of(
            Relation.of("g1", 1, [(1,)]), Relation.of("e2", 2, [(0, 1)])
        )
        plan = compile_rule(rule, populated)
        with pytest.raises(EvaluationError, match="no bound side"):
            execute_batch(plan, populated)
        empty = Database.of(Relation.of("g1", 1, []), Relation.of("e2", 2, []))
        plan = compile_rule(rule, empty)
        assert execute_batch(plan, empty) == []

    def test_override_arity_mismatch_raises(self):
        database = Database.of(Relation.of("q", 2, [(1, 2)]))
        plan = compile_rule(parse_rule("p(X) :- q(X, Y)."), database)
        with pytest.raises(EvaluationError, match="arity"):
            execute_batch(plan, database,
                          overrides={"q": Relation.of("q", 3, [])})


# ----------------------------------------------------------------------
# explain() on batch plans
# ----------------------------------------------------------------------


class TestExplainBatch:
    def test_batch_pipeline_listing(self):
        database = Database.of(
            Relation.of("edge", 2, [(0, 1)])
        )
        plan = compile_rule(
            parse_rule("path(X, Y) :- edge(X, Z), path(Z, Y)."), database
        )
        text = plan.explain(executor="batch")
        lines = text.splitlines()
        assert lines[0].startswith("batch-scan path(Z, Y)")
        assert lines[1].startswith("batch-probe edge(X, Z)")
        assert "fused-emit path(X, Y)" in lines[1]
        assert lines[-1] == "collapse -> (row, count) pairs"

    def test_rows_explain_unchanged_and_default(self):
        plan = compile_rule(parse_rule("p(X) :- q(X)."))
        assert plan.explain() == plan.explain(executor="rows")
        assert plan.explain().startswith("scan q(X)")

    def test_fact_plan(self):
        plan = compile_rule(parse_rule("p(1)."))
        assert plan.explain(executor="batch") == plan.explain()

    def test_equality_steps_described(self):
        plan = compile_rule(parse_rule("p(X, Y) :- q(X), Y = 7."))
        text = plan.explain(executor="batch")
        assert "batch-extend" in text
        assert "emit p(X, Y)" in text

    def test_unknown_executor_rejected(self):
        plan = compile_rule(parse_rule("p(X) :- q(X)."))
        with pytest.raises(ValueError, match="executor"):
            plan.explain(executor="simd")


# ----------------------------------------------------------------------
# EvalConfig validation
# ----------------------------------------------------------------------


class TestEvalConfigExecutor:
    def test_constants(self):
        assert EXECUTORS == ("rows", "batch")
        assert BACKENDS == ("serial", "threads", "processes")

    def test_defaults(self):
        config = EvalConfig()
        assert config.executor == "rows"
        assert config.backend == "serial"
        assert not config.batched()

    def test_batch_executor_accepted(self):
        config = EvalConfig(executor="batch")
        assert config.batched()
        assert config.backend == "serial"

    def test_unknown_executor_and_backend_rejected(self):
        with pytest.raises(ValueError):
            EvalConfig(executor="gpu")
        with pytest.raises(ValueError):
            EvalConfig(backend="gpu")


# ----------------------------------------------------------------------
# Bulk probe APIs
# ----------------------------------------------------------------------


class TestBulkAPIs:
    def test_relation_columns_aligned(self):
        relation = Relation.of("q", 3, [(1, "a", True), (2, "b", False)])
        first, second, third = relation.columns()
        assert sorted(zip(first, second, third)) == [
            (1, "a", True), (2, "b", False)
        ]
        (just_last,) = relation.columns([2])
        assert sorted(just_last, key=str) == [False, True]

    def test_relation_columns_out_of_range(self):
        from repro.exceptions import SchemaError

        with pytest.raises(SchemaError):
            Relation.of("q", 2, [(1, 2)]).columns([2])

    def test_hash_index_lookup_batch(self):
        relation = Relation.of("q", 2, [(1, 10), (1, 11), (2, 20)])
        index = HashIndex(relation, (0,))
        one, two, missing = index.lookup_batch([(1,), (2,), (9,)])
        assert sorted(one) == [(1, 10), (1, 11)]
        assert two == [(2, 20)]
        assert missing == []

    def test_hash_index_buckets_view(self):
        relation = Relation.of("q", 2, [(1, 10), (2, 20)])
        index = HashIndex(relation, (0,))
        assert index.buckets[(1,)] == index.lookup((1,))
        assert set(index.buckets) == {(1,), (2,)}
