"""Tests for incremental view maintenance (counting + DRed).

The central invariant: after **every** committed batch, the maintained
closure and its derived Theorem-3.1 counters (``derivations``,
``duplicates``, ``initial_size``, ``result_size``) are bit-identical
to a from-scratch recompute against the mutated database — across
executors and backends, through insert-only, delete-only and mixed
batches, including full wipes and re-growth.
"""

from __future__ import annotations

import random

import pytest

from repro import Database, EvaluationStatistics, Relation, solve
from repro.datalog.parser import parse_program, parse_rule
from repro.engine.parallel import EvalConfig
from repro.exceptions import SchemaError
from repro.ivm import (
    ChangeSet,
    Delta,
    MaterializedProgram,
    delta_expansions,
    stage_batch,
)
from repro.ivm.delta import DELTA, POST, PRE
from repro.storage.domain import Domain, InternedRelation
from repro.storage.relation import rows_removed_since

TC = (
    "path(X, Y) :- edge(X, Z), path(Z, Y).\n"
    "path(X, Y) :- edge(X, Y)."
)

MULTI = (
    "p(X, Y) :- e(X, Z), p(Z, Y).\n"
    "p(X, Y) :- p(X, Z), f(Z, W), e(W, Y).\n"
    "p(X, Y) :- e(X, Y).\n"
    "p(X, Y) :- f(X, Y), f(Y, X)."
)

CONFIGS = [None, EvalConfig(executor="batch"), EvalConfig.from_spec("interned")]


def edges(pairs):
    return Relation.of("edge", 2, pairs)


def assert_parity(materialized, program, predicate="path"):
    """Maintained (rows, counters) must match a cold recompute."""
    cold_stats = EvaluationStatistics()
    cold = solve(program, materialized.snapshot(), predicate,
                 config=materialized.config, statistics=cold_stats)
    live = materialized.closure(predicate)
    assert live.rows == cold.rows
    stats = materialized.statistics(predicate)
    assert stats.derivations == cold_stats.derivations
    assert stats.duplicates == cold_stats.duplicates
    assert stats.initial_size == cold_stats.initial_size
    assert stats.result_size == cold_stats.result_size


class TestDeltaExpansions:
    def test_one_variant_per_base_occurrence(self):
        rule = parse_rule("p(X, Y) :- e(X, Z), p(Z, W), e(W, Y).")
        variants = delta_expansions(rule, "p")
        assert [v.delta_name for v in variants] == ["e", "e"]
        first, second = variants
        # Anchor on the first occurrence: delta, then pre-states after.
        assert [a.predicate.name for a in first.rule.body] == [
            "e" + DELTA, "p" + PRE, "e" + PRE]
        # Anchor on the second: post-state before, delta at the anchor.
        assert [a.predicate.name for a in second.rule.body] == [
            "e" + POST, "p" + PRE, "e" + DELTA]

    def test_recursive_and_equality_atoms_pass_through(self):
        rule = parse_rule("p(X, Y) :- e(X, Z), p(Z, Y), X = X.")
        (variant,) = delta_expansions(rule, "p")
        names = [None if a.is_equality() else a.predicate.name
                 for a in variant.rule.body]
        assert names == ["e" + DELTA, "p" + PRE, None]

    def test_no_base_atoms_expand_to_nothing(self):
        rule = parse_rule("p(X, Y) :- p(X, Y).")
        assert delta_expansions(rule, "p") == ()


class TestStageBatch:
    def test_nets_deletes_before_inserts(self):
        relations = {"e": Relation.of("e", 2, [(1, 2)])}
        staged = stage_batch(relations, frozenset(), {"e": [(1, 2), (3, 4)]},
                             {"e": [(1, 2)]})
        removed, added = staged["e"]
        # (1, 2) deleted then re-inserted: present before and after.
        assert removed == frozenset()
        assert added == {(3, 4)}

    def test_rejects_idb_names(self):
        with pytest.raises(SchemaError, match="defined by rules"):
            stage_batch({}, frozenset({"p"}), {"p": [(1, 2)]}, {})

    def test_rejects_arity_mismatch(self):
        relations = {"e": Relation.of("e", 2, [(1, 2)])}
        with pytest.raises(SchemaError, match="arity"):
            stage_batch(relations, frozenset(), {"e": [(1, 2, 3)]}, {})


class TestMaterializedProgram:
    def test_single_edge_insert_and_delete(self):
        database = Database.of(edges([("a", "b"), ("b", "c")]))
        materialized = MaterializedProgram(TC, database)
        change = materialized.apply(inserts={"edge": [("c", "d")]})
        assert change.generation == 1
        assert change.relations["edge"].added == {("c", "d")}
        assert change.predicates["path"].added == {
            ("c", "d"), ("b", "d"), ("a", "d")}
        assert_parity(materialized, TC)

        change = materialized.apply(deletes={"edge": [("b", "c")]})
        assert change.predicates["path"].removed == {
            ("b", "c"), ("a", "c"), ("b", "d"), ("a", "d")}
        assert_parity(materialized, TC)

    def test_noop_batch_keeps_generation(self):
        materialized = MaterializedProgram(
            TC, Database.of(edges([("a", "b")])))
        change = materialized.apply(inserts={"edge": [("a", "b")]},
                                    deletes={"edge": [("z", "z")]})
        assert not change
        assert change.generation == 0
        assert materialized.generation == 0

    def test_delete_then_reinsert_in_one_batch_is_net_insert(self):
        materialized = MaterializedProgram(
            TC, Database.of(edges([("a", "b")])))
        change = materialized.apply(
            inserts={"edge": [("a", "b"), ("b", "c")]},
            deletes={"edge": [("a", "b")]})
        assert change.relations["edge"].added == {("b", "c")}
        assert change.relations["edge"].removed == frozenset()
        assert_parity(materialized, TC)

    def test_full_wipe_and_regrow(self):
        pairs = [("a", "b"), ("b", "c"), ("c", "a")]
        materialized = MaterializedProgram(TC, Database.of(edges(pairs)))
        materialized.apply(deletes={"edge": pairs})
        assert materialized.closure("path").rows == frozenset()
        assert_parity(materialized, TC)
        materialized.apply(inserts={"edge": [("x", "y"), ("y", "x")]})
        assert_parity(materialized, TC)

    def test_insert_into_unknown_relation_creates_it(self):
        materialized = MaterializedProgram(
            "p(X, Y) :- e(X, Y).\n"
            "p(X, Y) :- f(X, Z), p(Z, Y).",
            Database.of(Relation.of("e", 2, [(1, 2)])))
        change = materialized.apply(inserts={"f": [(0, 1)]})
        assert change.predicates["p"].added == {(0, 2)}
        assert_parity(materialized, "p(X, Y) :- e(X, Y).\n"
                                    "p(X, Y) :- f(X, Z), p(Z, Y).", "p")

    def test_mutating_idb_is_rejected_without_side_effects(self):
        materialized = MaterializedProgram(
            TC, Database.of(edges([("a", "b")])))
        with pytest.raises(SchemaError, match="defined by rules"):
            materialized.apply(inserts={"path": [("x", "y")]})
        assert materialized.generation == 0
        assert materialized.closure("path").rows == {("a", "b")}

    def test_rejected_batch_leaves_working_database_untouched(self):
        materialized = MaterializedProgram(
            TC, Database.of(edges([("a", "b")])))
        with pytest.raises(SchemaError):
            materialized.apply(inserts={"edge": [("x", "y")],
                                        "path": [("x", "y")]})
        assert materialized.working.relation("edge").rows == {("a", "b")}

    def test_snapshot_is_isolated_from_later_commits(self):
        materialized = MaterializedProgram(
            TC, Database.of(edges([("a", "b")])))
        frozen = materialized.snapshot()
        materialized.apply(inserts={"edge": [("b", "c")]})
        assert frozen.relation("edge").rows == {("a", "b")}
        assert materialized.working.relation("edge").rows == {
            ("a", "b"), ("b", "c")}

    def test_irrelevant_relation_mutation_is_cheap_noop_for_closure(self):
        database = Database.of(edges([("a", "b")]),
                               Relation.of("other", 1, [(1,)]))
        materialized = MaterializedProgram(TC, database)
        change = materialized.apply(inserts={"other": [(2,)]})
        assert "path" not in change.predicates
        assert_parity(materialized, TC)


class TestRandomizedParity:
    @pytest.mark.parametrize("config", CONFIGS,
                             ids=["default", "batch", "interned"])
    @pytest.mark.parametrize("seed", [7, 23])
    def test_tc_mixed_batches(self, config, seed):
        rng = random.Random(seed)
        nodes = [f"n{i}" for i in range(9)]
        pairs = {(a, b) for a in nodes for b in nodes
                 if a != b and rng.random() < 0.18}
        materialized = MaterializedProgram(
            TC, Database.of(edges(sorted(pairs))), config)
        universe = [(a, b) for a in nodes for b in nodes if a != b]
        current = set(pairs)
        for _ in range(12):
            deletes = set(rng.sample(sorted(current),
                                     min(len(current), rng.randint(0, 3))))
            inserts = {pair for pair in rng.sample(universe, rng.randint(0, 3))}
            materialized.apply(inserts={"edge": inserts},
                               deletes={"edge": deletes})
            current = (current - deletes) | inserts
            assert materialized.working.relation("edge").rows == current
            assert_parity(materialized, TC)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_multi_rule_two_base_relations(self, seed):
        rng = random.Random(seed)
        nodes = list(range(7))
        universe = [(a, b) for a in nodes for b in nodes]
        e_rows = set(rng.sample(universe, 8))
        f_rows = set(rng.sample(universe, 5))
        database = Database.of(Relation.of("e", 2, sorted(e_rows)),
                               Relation.of("f", 2, sorted(f_rows)))
        materialized = MaterializedProgram(MULTI, database)
        for _ in range(8):
            name, rows = rng.choice([("e", e_rows), ("f", f_rows)])
            deletes = set(rng.sample(sorted(rows),
                                     min(len(rows), rng.randint(0, 2))))
            inserts = set(rng.sample(universe, rng.randint(0, 2)))
            materialized.apply(inserts={name: inserts},
                               deletes={name: deletes})
            rows -= deletes
            rows |= inserts
            assert_parity(materialized, MULTI, "p")


class TestMaintainConfig:
    def test_from_spec_maintain_token(self):
        config = EvalConfig.from_spec("interned-processes-maintain")
        assert config.maintain and config.intern
        assert config.backend == "serial"
        assert config.spec() == "interned-serial-maintain"

    def test_from_spec_maintain_alone(self):
        config = EvalConfig.from_spec("maintain")
        assert config.maintain
        assert EvalConfig.from_spec(config.spec()) == config

    def test_from_spec_rejects_duplicate_maintain(self):
        with pytest.raises(ValueError):
            EvalConfig.from_spec("maintain-maintain")


class TestStorageDeltaHelpers:
    def test_rows_removed_since(self):
        base = Relation.of("e", 2, [(1, 2), (2, 3), (3, 4)])
        shrunk = Relation.from_canonical("e", 2, frozenset({(1, 2), (3, 4)}))
        assert rows_removed_since(shrunk, base) == {(2, 3)}
        assert rows_removed_since(base, shrunk) is None  # grew, not shrank
        other = Relation.of("f", 2, [(1, 2)])
        assert rows_removed_since(other, base) is None

    def test_interned_without_rows(self):
        domain = Domain()
        relation = Relation.of("e", 2, [(1, 2), (2, 3), (3, 4)])
        interned = InternedRelation.from_relation(relation, domain)
        shrunk = interned.without_rows(frozenset({(2, 3)}), domain)
        kept = {
            (domain.value_of(shrunk.columns[0][j]),
             domain.value_of(shrunk.columns[1][j]))
            for j in range(shrunk.length)
        }
        assert kept == {(1, 2), (3, 4)}
        assert shrunk.length == 2

    def test_database_shrink_reuses_interned_columns(self):
        database = Database.of(edges([(1, 2), (2, 3), (3, 4)]))
        database.interned_relation("edge", 2)
        database._replace_relation_unchecked(
            Relation.from_canonical("edge", 2, frozenset({(1, 2), (3, 4)})))
        interned = database.interned_relation("edge", 2)
        assert interned.length == 2
        domain = database.domain()
        rows = {
            (domain.value_of(interned.columns[0][j]),
             domain.value_of(interned.columns[1][j]))
            for j in range(interned.length)
        }
        assert rows == {(1, 2), (3, 4)}

    def test_replace_relation_warns(self):
        database = Database.of(edges([(1, 2)]))
        with pytest.warns(DeprecationWarning, match="Session"):
            database.replace_relation(edges([(1, 2), (2, 3)]))
        assert database.relation("edge").rows == {(1, 2), (2, 3)}


class TestChangeSet:
    def test_truthiness_and_touched(self):
        empty = ChangeSet(3)
        assert not empty and empty.touched() == frozenset()
        change = ChangeSet(4, {"edge": Delta(added=frozenset({(1, 2)}))},
                           {"path": Delta(removed=frozenset({(1, 3)}))})
        assert change
        assert change.touched() == {"edge", "path"}
