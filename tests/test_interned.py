"""Tests for the interned (dictionary-encoded) execution layer.

Covers the :mod:`repro.storage.domain` primitives (Domain,
InternedRelation, IntIndex), the interned executor's parity with the
batch/rows executors (results, derivation/duplicate statistics and
low-level join counters, on every backend and every driver), the packed
closure, and the interned ``explain`` pipeline.
"""

from __future__ import annotations

import pickle
from array import array

import pytest

from test_parallel import SCENARIOS, scenario_layered_tc, stats_signature

from repro.datalog.parser import parse_rule
from repro.engine.decomposed import decomposed_closure
from repro.engine.naive import naive_closure
from repro.engine.parallel import BACKENDS, EvalConfig
from repro.engine.plan import compile_rule
from repro.engine.seminaive import seminaive_closure, solve_linear_recursion
from repro.engine.separable import separable_evaluate
from repro.engine.statistics import EvaluationStatistics, JoinCounters
from repro.engine.vectorized import (
    InternedDeltaCache,
    PackedBinaryJoin,
    decode_packed_pairs,
    execute_batch,
    execute_interned,
    execute_interned_into,
)
from repro.exceptions import EvaluationError
from repro.storage.database import Database
from repro.storage.domain import Domain, IntIndex, InternedRelation
from repro.storage.relation import Relation
from repro.storage.selection import EqualitySelection


def interned_config(backend: str = "serial") -> EvalConfig:
    if backend == "serial":
        return EvalConfig(executor="batch", intern=True)
    return EvalConfig(executor="batch", intern=True, backend=backend,
                      max_workers=2)


def run_seminaive(scenario: str, config: EvalConfig | None):
    rules, database, initial = SCENARIOS[scenario]()
    database = Database(dict(database.relations))
    statistics = EvaluationStatistics()
    relation = seminaive_closure(rules, initial, database, statistics,
                                 config=config)
    return relation, statistics


def full_signature(statistics: EvaluationStatistics):
    return (stats_signature(statistics), statistics.joins.rows_probed,
            statistics.joins.bindings_extended,
            statistics.joins.tuples_emitted)


# ----------------------------------------------------------------------
# Domain
# ----------------------------------------------------------------------


class TestDomain:
    def test_intern_is_dense_and_idempotent(self):
        domain = Domain()
        assert domain.intern("a") == 0
        assert domain.intern("b") == 1
        assert domain.intern("a") == 0
        assert len(domain) == 2
        assert domain.value_of(1) == "b"

    def test_intern_row_and_decode_row(self):
        domain = Domain()
        ids = domain.intern_row((1, "x", None))
        assert domain.decode_row(ids) == (1, "x", None)

    def test_values_snapshot_and_seed_replay(self):
        domain = Domain()
        for value in ("p", "q", "r"):
            domain.intern(value)
        replayed = Domain(domain.values_snapshot())
        assert replayed.intern("q") == domain.intern("q")
        assert list(replayed) == list(domain)

    def test_snapshot_tail(self):
        domain = Domain(["a", "b"])
        domain.intern("c")
        assert domain.values_snapshot(2) == ["c"]

    def test_contains_and_views(self):
        domain = Domain(["v"])
        assert "v" in domain
        assert "w" not in domain
        assert domain.values_view()[0] == "v"

    def test_none_and_mixed_types_are_legal_values(self):
        domain = Domain()
        first = domain.intern(None)
        second = domain.intern(0)
        # 0 == False and None is distinct; ids must separate by equality.
        assert first != second
        assert domain.value_of(first) is None


# ----------------------------------------------------------------------
# InternedRelation / IntIndex
# ----------------------------------------------------------------------


class TestInternedRelation:
    def test_columns_are_row_aligned_arrays(self):
        domain = Domain()
        relation = Relation.of("q", 2, [(1, "a"), (2, "b")])
        interned = InternedRelation.from_relation(relation, domain)
        assert len(interned) == 2
        assert all(isinstance(column, array) for column in interned.columns)
        rows = {
            (domain.value_of(interned.columns[0][j]),
             domain.value_of(interned.columns[1][j]))
            for j in range(interned.length)
        }
        assert rows == set(relation.rows)

    def test_arity_zero(self):
        domain = Domain()
        relation = Relation.of("n", 0, [()])
        interned = InternedRelation.from_relation(relation, domain)
        assert interned.length == 1
        assert interned.columns == ()

    def test_extend_with_interns_new_rows(self):
        domain = Domain()
        relation = Relation.of("q", 1, [(1,)])
        interned = InternedRelation.from_relation(relation, domain)
        interned.extend_with([(2,), (3,)], domain)
        assert interned.length == 3
        assert sorted(domain.value_of(i) for i in interned.columns[0]) == [1, 2, 3]


class TestIntIndex:
    def _interned(self, rows, arity=2):
        domain = Domain()
        return domain, InternedRelation.from_relation(
            Relation.of("q", arity, rows), domain
        )

    def test_single_key_raw_int_buckets(self):
        domain, interned = self._interned([(1, 10), (1, 11), (2, 20)])
        index = IntIndex(interned, (0,), (1,))
        key = domain.intern(1)
        payloads = {domain.value_of(i) for i in index.lookup(key)}
        assert payloads == {10, 11}
        assert index.lookup(domain.intern(99) if 99 in domain else -1) == []

    def test_multi_key_tuple_buckets(self):
        domain, interned = self._interned([(1, 10), (1, 11)])
        index = IntIndex(interned, (0, 1), ())
        assert index.counted
        key = (domain.intern(1), domain.intern(10))
        assert index.lookup(key) == 1

    def test_empty_key_full_scan_bucket(self):
        domain, interned = self._interned([(1, 10), (2, 20)])
        index = IntIndex(interned, (), (0, 1))
        assert len(index.lookup(())) == 2

    def test_counted_buckets_accumulate(self):
        domain, interned = self._interned([(1, 10), (1, 11), (2, 20)])
        index = IntIndex(interned, (0,), ())
        assert index.lookup(domain.intern(1)) == 2
        assert index.lookup(-5) == 0

    def test_extend_from_columns_appends(self):
        domain, interned = self._interned([(1, 10)])
        index = IntIndex(interned, (0,), (1,))
        interned.extend_with([(1, 12), (3, 30)], domain)
        index.extend_from_columns(interned.columns, 1, interned.length)
        assert index.length == 3
        assert len(index.lookup(domain.intern(1))) == 2

    def test_premultiplied_caches_and_tracks_growth(self):
        domain, interned = self._interned([(1, 10), (2, 20)])
        index = IntIndex(interned, (0,), (1,))
        raw = index.premultiplied(1)
        assert raw is index.buckets
        doubled = index.premultiplied(7)
        key = domain.intern(1)
        assert doubled[key] == [7 * i for i in index.buckets[key]]
        assert index.premultiplied(7) is doubled
        interned.extend_with([(1, 13)], domain)
        index.extend_from_columns(interned.columns, 2, interned.length)
        refreshed = index.premultiplied(7)
        assert refreshed is not doubled
        assert len(refreshed[key]) == 2

    def test_premultiplied_requires_single_payload(self):
        domain, interned = self._interned([(1, 10)])
        with pytest.raises(ValueError):
            IntIndex(interned, (0,), ()).premultiplied(3)


# ----------------------------------------------------------------------
# Extension lineage and cache maintenance
# ----------------------------------------------------------------------


class TestExtensionLineage:
    def test_extended_with_records_added_rows(self):
        from repro.storage.relation import rows_added_since

        base = Relation.of("r", 1, [(1,)])
        grown = base.extended_with([(2,), (1,)])
        assert grown.rows == frozenset({(1,), (2,)})
        assert rows_added_since(grown, base) == frozenset({(2,)})
        assert rows_added_since(base, base) == frozenset()
        assert rows_added_since(grown, Relation.of("r", 1, [(1,)])) is None

    def test_chain_walk(self):
        from repro.storage.relation import rows_added_since

        first = Relation.of("r", 1, [(1,)])
        second = first.extended_with([(2,)])
        third = second.extended_with([(3,)])
        assert rows_added_since(third, first) == frozenset({(2,), (3,)})

    def test_extended_relation_pickles_without_lineage(self):
        base = Relation.of("r", 1, [(1,)])
        grown = base.extended_with([(2,)])
        copy = pickle.loads(pickle.dumps(grown))
        assert copy.rows == grown.rows

    def test_database_index_extends_in_place(self):
        base = Relation.of("r", 2, [(1, 2)])
        database = Database.of(base)
        index = database.index("r", 2, (0,))
        database.relations["r"] = base.extended_with([(1, 3), (4, 4)])
        extended = database.index("r", 2, (0,))
        assert extended is index
        assert sorted(extended.lookup((1,))) == [(1, 2), (1, 3)]

    def test_database_index_rebuilds_without_lineage(self):
        base = Relation.of("r", 2, [(1, 2)])
        database = Database.of(base)
        index = database.index("r", 2, (0,))
        database.relations["r"] = Relation.of("r", 2, [(9, 9)])
        rebuilt = database.index("r", 2, (0,))
        assert rebuilt is not index
        assert rebuilt.lookup((9,)) == [(9, 9)]

    def test_interned_relation_cache_extends(self):
        base = Relation.of("r", 2, [(1, 2)])
        database = Database.of(base)
        interned = database.interned_relation("r", 2)
        index = database.interned_index("r", 2, (0,), (1,))
        database.relations["r"] = base.extended_with([(1, 3)])
        grown = database.interned_relation("r", 2)
        assert grown is interned
        assert grown.length == 2
        grown_index = database.interned_index("r", 2, (0,), (1,))
        assert grown_index is index
        assert grown_index.length == 2

    def test_row_set_builder_freezes_form_a_chain(self):
        from repro.storage.relation import RowSetBuilder, rows_added_since

        builder = RowSetBuilder("r", 1, [(1,)])
        first = builder.freeze()
        builder.add_all_new({(2,), (3,)})
        second = builder.freeze()
        assert rows_added_since(second, first) == frozenset({(2,), (3,)})


# ----------------------------------------------------------------------
# Executor parity
# ----------------------------------------------------------------------


RULE_SHAPE_CASES = [
    ("p(X, Y) :- edge(X, Z), path(Z, Y).",
     {"edge": [(0, 1), (1, 2)], "path": [(1, 1), (2, 2)]}),
    ("p(X, Y) :- p0(U, Y), q0(X, U), X = 1.",
     {"p0": [(0, 1), (1, 2)], "q0": [(1, 0), (2, 1)]}),
    ("p(X, X) :- p0(U, X), q0(U, U).",
     {"p0": [(0, 1), (1, 1)], "q0": [(1, 1), (0, 2)]}),
    ("p(X) :- q(X, X).", {"q": [(None, None), (None, 1), (2, 2)]}),
    ("p(X) :- q(X, 5).", {"q": [(1, 5), (2, 6)]}),
    ("p(X) :- q(X), r(Y).", {"q": [(1,), (2,)], "r": [(7,), (8,)]}),
    ("p(X, Y) :- q(X, Y), X = Y.", {"q": [(1, 1), (1, 2)]}),
    ("p(1, 2).", {}),
    ("p(X, Y) :- q(X), Y = 7.", {"q": [(3,), (4,)]}),
    ("p(A, B, C, D, E) :- w(U, B, C, D, E), l(A, U), m(A).",
     {"w": [(0, 1, 2, 3, 4), (1, 5, 6, 7, 8)],
      "l": [(9, 0), (8, 1), (7, 1)], "m": [(9,), (7,)]}),
    ("p(X, Y) :- q(X, Z, W), r(Z, W, Y).",
     {"q": [(1, 2, 3), (4, 5, 6)], "r": [(2, 3, 9), (2, 3, 7)]}),
]


class TestExecutorParity:
    @pytest.mark.parametrize("rule_text,relations", RULE_SHAPE_CASES)
    def test_interned_matches_batch_pairs_and_counters(self, rule_text,
                                                       relations):
        rel_objs = [
            Relation.of(name, len(next(iter(rows))), rows)
            for name, rows in relations.items()
        ]
        database = Database.of(*rel_objs)
        plan = compile_rule(parse_rule(rule_text), database)
        batch_counters = JoinCounters()
        batch_pairs = execute_batch(plan, database, counters=batch_counters)
        interned_counters = JoinCounters()
        interned_pairs = execute_interned(plan, database,
                                          counters=interned_counters)
        assert dict(interned_pairs) == dict(batch_pairs)
        assert len(interned_pairs) == len(batch_pairs)
        assert interned_counters == batch_counters

    def test_packed_and_into_agree_with_decoded(self):
        database = Database.of(Relation.of("q", 2, [(1, 5), (1, 6), (2, 5)]))
        plan = compile_rule(parse_rule("p(X) :- q(X, Y)."), database)
        pairs = execute_interned(plan, database)
        sink: set[int] = set()
        total, base_k, arity = execute_interned_into(plan, database, sink)
        assert total == sum(count for _, count in pairs)
        decoded = decode_packed_pairs([(packed, 1) for packed in sink],
                                      base_k, arity, database.domain())
        assert sorted(row for row, _ in decoded) == \
            sorted(row for row, _ in pairs)

    def test_unsafe_equality_raises_only_when_reached(self):
        rule = parse_rule("p(X) :- q(X), Y = Z.")
        empty = Database.of(Relation.of("q", 1, []))
        assert execute_interned(compile_rule(rule, empty), empty) == []
        populated = Database.of(Relation.of("q", 1, [(1,)]))
        with pytest.raises(EvaluationError, match="no bound side"):
            execute_interned(compile_rule(rule, populated), populated)

    def test_override_arity_mismatch_raises(self):
        database = Database.of(Relation.of("q", 2, [(1, 2)]))
        plan = compile_rule(parse_rule("p(X) :- q(X, Y)."), database)
        with pytest.raises(EvaluationError, match="arity"):
            execute_interned(plan, database,
                             overrides={"q": Relation.of("q", 3, [])})

    def test_delta_cache_domain_mismatch_raises(self):
        database = Database.of(Relation.of("q", 1, [(1,)]))
        plan = compile_rule(parse_rule("p(X) :- q(X)."), database)
        with pytest.raises(EvaluationError, match="domain"):
            execute_interned_into(plan, database, set(),
                                  deltas=InternedDeltaCache(Domain()))

    def test_interned_relation_override_runs_without_decoding(self):
        database = Database.of(Relation.of("edge", 2, [(0, 1), (1, 2)]))
        plan = compile_rule(
            parse_rule("path(X, Y) :- edge(X, Z), path(Z, Y)."), database
        )
        domain = database.domain()
        delta = InternedRelation.from_relation(
            Relation.of("path", 2, [(1, 1), (2, 2)]), domain
        )
        pairs = execute_interned(plan, database, overrides={"path": delta})
        assert sorted(row for row, _ in pairs) == [(0, 1), (1, 2)]


# ----------------------------------------------------------------------
# Driver-level parity on every scenario and backend
# ----------------------------------------------------------------------


class TestDriverParity:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_serial_interned_matches_rows_exactly(self, scenario):
        rows_rel, rows_stats = run_seminaive(scenario, None)
        interned_rel, interned_stats = run_seminaive(scenario,
                                                     interned_config())
        assert interned_rel.rows == rows_rel.rows
        assert interned_stats.as_dict() == rows_stats.as_dict()
        assert full_signature(interned_stats) == full_signature(rows_stats)

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_interned_composes_with_parallel_backends(self, scenario, backend):
        rows_rel, rows_stats = run_seminaive(scenario, None)
        interned_rel, interned_stats = run_seminaive(
            scenario, interned_config(backend)
        )
        assert interned_rel.rows == rows_rel.rows
        assert stats_signature(interned_stats) == stats_signature(rows_stats)

    def test_three_interned_runs_identical(self):
        outcomes = []
        for _ in range(3):
            relation, statistics = run_seminaive("two-sided-paths",
                                                 interned_config())
            outcomes.append((repr(relation.sorted_rows()).encode(),
                             full_signature(statistics)))
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_naive_interned_matches_rows(self):
        rules, database, initial = scenario_layered_tc()

        def run(config):
            statistics = EvaluationStatistics()
            relation = naive_closure(
                rules, initial, Database(dict(database.relations)), statistics,
                config=config,
            )
            return relation, statistics

        rows_rel, rows_stats = run(None)
        interned_rel, interned_stats = run(interned_config())
        assert interned_rel.rows == rows_rel.rows
        assert interned_stats.as_dict() == rows_stats.as_dict()

    def test_decomposed_interned_matches_rows(self, tc_rules):
        first, second = tc_rules
        q = Relation.of("q", 2, [(i, i + 1) for i in range(8)])
        r = Relation.of("r", 2, [(i, i + 1) for i in range(8)])
        initial = Relation.of("p", 2, [(0, 0), (3, 3)])

        def run(config):
            statistics = EvaluationStatistics()
            relation = decomposed_closure(
                [(first,), (second,)], initial, Database.of(q, r), statistics,
                config=config,
            )
            return relation, statistics

        rows_rel, rows_stats = run(None)
        interned_rel, interned_stats = run(interned_config())
        assert interned_rel.rows == rows_rel.rows
        assert interned_stats.as_dict() == rows_stats.as_dict()

    def test_separable_interned_matches_rows(self):
        outer = (parse_rule("reach(X, Y) :- left(X, U), reach(U, Y)."),)
        inner = (parse_rule("reach(X, Y) :- reach(X, V), right(V, Y)."),)
        left = Relation.of("left", 2, [(i, i + 1) for i in range(10)])
        right = Relation.of("right", 2, [(i, i + 1) for i in range(10)])
        initial = Relation.of("reach", 2, [(i, i) for i in range(11)])

        def run(config):
            statistics = EvaluationStatistics()
            relation = separable_evaluate(
                outer, inner, EqualitySelection(0, 0), initial,
                Database.of(left, right), statistics, config=config,
            )
            return relation, statistics

        rows_rel, rows_stats = run(None)
        interned_rel, interned_stats = run(interned_config())
        assert interned_rel.rows == rows_rel.rows
        assert interned_stats.as_dict() == rows_stats.as_dict()

    def test_solve_linear_recursion_interned_covers_exit_rules(self):
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
            statistics = EvaluationStatistics()
            relation = solve_linear_recursion(
                recursion, Database.of(edge, base), statistics, config=config,
            )
            return relation, statistics

        rows_rel, rows_stats = run(None)
        interned_rel, interned_stats = run(interned_config())
        assert interned_rel.rows == rows_rel.rows
        assert interned_stats.as_dict() == rows_stats.as_dict()

    def test_wide5_workload_parity(self):
        import random

        from repro.workloads.wide import wide5_workload

        rules, database, initial = wide5_workload(
            6, 6, num_rules=3, rng=random.Random(5)
        )

        def run(config):
            statistics = EvaluationStatistics()
            relation = seminaive_closure(
                rules, initial, Database(dict(database.relations)), statistics,
                config=config,
            )
            return relation, statistics

        rows_rel, rows_stats = run(None)
        interned_rel, interned_stats = run(interned_config())
        assert interned_rel.rows == rows_rel.rows
        assert full_signature(interned_stats) == full_signature(rows_stats)

    def test_string_valued_domain(self):
        edge = Relation.of("edge", 2, [("a", "b"), ("b", "c"), ("c", "d")])
        initial = Relation.of(
            "path", 2, [(v, v) for v in ("a", "b", "c", "d")]
        )
        rule = (parse_rule("path(X, Y) :- edge(X, Z), path(Z, Y)."),)

        def run(config):
            statistics = EvaluationStatistics()
            relation = seminaive_closure(
                rule, initial, Database.of(edge), statistics, config=config
            )
            return relation, statistics

        rows_rel, rows_stats = run(None)
        interned_rel, interned_stats = run(interned_config())
        assert interned_rel.rows == rows_rel.rows
        assert full_signature(interned_stats) == full_signature(rows_stats)


# ----------------------------------------------------------------------
# PackedBinaryJoin specialisation
# ----------------------------------------------------------------------


class TestPackedBinaryJoin:
    def test_specializes_both_tc_forms(self):
        database = Database.of(Relation.of("edge", 2, [(0, 1)]))
        for text in ("path(X, Y) :- edge(X, Z), path(Z, Y).",
                     "path(X, Y) :- path(X, V), edge(V, Y)."):
            plan = compile_rule(parse_rule(text), database)
            assert PackedBinaryJoin.try_specialize(plan, "path", 7) is not None

    def test_rejects_other_shapes(self):
        database = Database.of(
            Relation.of("edge", 2, [(0, 1)]), Relation.of("m", 1, [(0,)])
        )
        rejected = [
            "path(X, Y) :- edge(X, Z), path(Z, Y), m(X).",  # three atoms
            "p(1, 2).",                                     # fact
            "path(X, X) :- edge(X, Z), path(Z, X).",        # repeat in head/delta
        ]
        for text in rejected:
            plan = compile_rule(parse_rule(text), database)
            name = plan.rule.head.predicate.name
            assert PackedBinaryJoin.try_specialize(plan, name, 7) is None


# ----------------------------------------------------------------------
# EvalConfig knobs
# ----------------------------------------------------------------------


class TestEvalConfigIntern:
    def test_defaults(self):
        config = EvalConfig()
        assert not config.interned()
        assert config.mode() == "rows"

    def test_intern_requires_batch(self):
        with pytest.raises(ValueError, match="batch"):
            EvalConfig(executor="rows", intern=True)

    def test_interned_sugar_normalises(self):
        config = EvalConfig(executor="interned")
        assert config.executor == "batch"
        assert config.intern
        assert config.mode() == "interned"

    def test_interned_composes_with_backends(self):
        for backend in BACKENDS:
            config = EvalConfig(executor="batch", intern=True,
                                backend=backend)
            assert config.interned()


# ----------------------------------------------------------------------
# explain() for interned plans
# ----------------------------------------------------------------------


class TestExplainInterned:
    def test_interned_pipeline_listing(self):
        database = Database.of(Relation.of("edge", 2, [(0, 1)]))
        plan = compile_rule(
            parse_rule("path(X, Y) :- edge(X, Z), path(Z, Y)."), database
        )
        text = plan.explain(executor="interned")
        lines = text.splitlines()
        assert lines[0].startswith("int-scan path(Z, Y)")
        assert "array'q'" in lines[0]
        assert lines[1].startswith("int-probe edge(X, Z)")
        assert "fused-pack path(X, Y)" in lines[1]
        assert lines[2].startswith("collapse packed ints")
        # The grouped packed-closure specialisation is part of the plan.
        assert lines[-1].startswith(
            "packed-closure specialization: grouped-binary"
        )

    def test_counted_probe_described(self):
        database = Database.of(
            Relation.of("q", 2, [(0, 1)]), Relation.of("m", 1, [(0,)])
        )
        plan = compile_rule(parse_rule("p(X, Y) :- q(X, Y), m(X)."), database)
        assert "payload=counted" in plan.explain(executor="interned")

    def test_fact_plan(self):
        plan = compile_rule(parse_rule("p(1)."))
        assert plan.explain(executor="interned") == plan.explain()

    def test_unknown_executor_still_rejected(self):
        plan = compile_rule(parse_rule("p(X) :- q(X)."))
        with pytest.raises(ValueError, match="executor"):
            plan.explain(executor="simd")
