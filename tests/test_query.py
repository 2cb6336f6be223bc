"""Tests for the query subsystem: Query, magic sets, labels, QueryEngine.

The central invariant, asserted many ways: every answering tier (EDB
filter, reachability labels, magic-sets demand rewrite, full closure)
returns **bit-identical** answers, on every executor × backend
combination.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Query, QueryEngine, answer, solve
from repro.datalog.atoms import Predicate
from repro.datalog.parser import parse_program, parse_rule
from repro.datalog.programs import LinearRecursion
from repro.datalog.terms import Constant, Variable
from repro.engine.parallel import EvalConfig
from repro.engine.seminaive import seminaive_closure
from repro.engine.statistics import EvaluationStatistics
from repro.exceptions import (
    DatalogSyntaxError,
    NotApplicableError,
    RuleStructureError,
    SchemaError,
)
from repro.query import (
    MagicProgram,
    QueryAnswer,
    ReachabilityLabels,
    build_labels,
    magic_rewrite,
    stable_bound_positions,
    transitive_closure_edge,
)
from repro.storage.database import Database
from repro.storage.relation import Relation
from repro.workloads.graphs import (
    cycle_edges,
    layered_dag_edges,
    random_graph_edges,
    tree_edges,
)
from repro.workloads.rulegen import random_restricted_rule

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TC_LEFT = (
    "path(X, Y) :- edge(X, Z), path(Z, Y).\n"
    "path(X, Y) :- edge(X, Y)."
)
TC_RIGHT = (
    "path(X, Y) :- path(X, Z), edge(Z, Y).\n"
    "path(X, Y) :- edge(X, Y)."
)

#: Every mode, plus the packed closure under each non-serial backend
#: spelling the benchmark harness still passes, keyed by the spelling
#: (``spec()`` reads ``serial`` for all three interned entries).
ALL_CONFIGS = {
    "default": None,
    "rows-serial": EvalConfig.from_spec("rows"),
    "batch-serial": EvalConfig.from_spec("batch"),
    "interned-serial": EvalConfig.from_spec("interned"),
    "interned-threads": EvalConfig.from_spec("interned-threads"),
    "interned-processes": EvalConfig.from_spec("interned-processes"),
}
#: The cheap subset for property sweeps (no pool startup per example).
SERIAL_CONFIGS = [None, EvalConfig.from_spec("batch"),
                  EvalConfig.from_spec("interned")]


def tc_engine(edges, program: str = TC_LEFT, config=None) -> QueryEngine:
    database = Database.of(Relation.of("edge", 2, edges))
    return QueryEngine(database, program, config=config)


SAME_GENERATION = (
    "sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).\n"
    "sg(X, Y) :- flat(X, Y)."
)


def same_generation_database(layers: int, width: int) -> Database:
    """up/down layered DAGs meeting in a flat top layer (node 0 at the bottom)."""
    rng = random.Random(11)
    up = layered_dag_edges(layers, width, fanout=2, name="up", rng=rng)
    mirror = layered_dag_edges(layers, width, fanout=2, name="down", rng=rng)
    top = range((layers - 1) * width, layers * width)
    return Database.of(
        up,
        Relation.of("down", 2, [(low, high) for high, low in mirror.rows]),
        Relation.of("flat", 2, [(left, right) for left in top for right in top
                                if left == right or rng.random() < 0.25]),
    )


CYCLIC_EDGES = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "b"),
                ("d", "e"), ("f", "f")]


# ----------------------------------------------------------------------
# Query: parsing, adornments, filtering
# ----------------------------------------------------------------------


class TestQuery:
    def test_parse_trailing_question_mark(self):
        query = Query.parse("path(a, X)?")
        assert query.name == "path"
        assert query.arity == 2
        assert query.adornment == "bf"

    @pytest.mark.parametrize("text", ["path(a, X)", "path(a, X).",
                                      "  path(a, X)?  "])
    def test_parse_terminator_optional(self, text):
        assert Query.parse(text) == Query.parse("path(a, X)?")

    def test_parse_empty_rejected(self):
        with pytest.raises(DatalogSyntaxError):
            Query.parse("  ?")

    def test_adornment_and_positions(self):
        query = Query.parse("p(a, X, 3, Y)?")
        assert query.adornment == "bfbf"
        assert query.bound_positions == (0, 2)
        assert query.free_positions == (1, 3)
        assert query.bound_values == ("a", 3)

    def test_of_wraps_plain_values_and_none(self):
        query = Query.of("p", 1, None, Variable("X"), Constant("c"))
        assert query.adornment == "bffb"
        assert query.bound_values == (1, "c")

    def test_repeated_variable_groups(self):
        query = Query.parse("p(X, Y, X)?")
        assert query.repeated_groups == ((0, 2),)
        assert query.matches((1, 2, 1))
        assert not query.matches((1, 2, 3))

    def test_ground_and_full(self):
        assert Query.parse("p(a, b)?").is_ground()
        assert not Query.parse("p(a, X)?").is_ground()
        assert Query.parse("p(X, Y)?").is_full()
        assert not Query.parse("p(X, X)?").is_full()

    def test_filter_is_reference_semantics(self):
        relation = Relation.of("p", 2, [(1, 1), (1, 2), (2, 2)])
        assert Query.of("p", 1, None).filter(relation).rows == {(1, 1), (1, 2)}
        assert Query.parse("p(X, X)?").filter(relation).rows == {(1, 1), (2, 2)}
        assert Query.parse("p(X, Y)?").filter(relation) is relation

    def test_ground_filter_is_a_membership_test(self):
        class NoScan(frozenset):
            def __iter__(self):
                raise AssertionError("a ground filter must not scan")

        relation = Relation.of("p", 2, [(i, i + 1) for i in range(1000)])
        object.__setattr__(relation, "rows", NoScan(relation.rows))
        assert Query.parse("p(7, 8)?").filter(relation).rows == {(7, 8)}
        assert Query.parse("p(7, 9)?").filter(relation).rows == frozenset()
        with pytest.raises(AssertionError):
            Query.parse("p(7, X)?").filter(relation)

    def test_bindings(self):
        query = Query.parse("p(a, X, Y)?")
        rows = [("a", 1, 2), ("a", 3, 4)]
        assert list(query.bindings(rows)) == [{"X": 1, "Y": 2}, {"X": 3, "Y": 4}]

    def test_str(self):
        assert str(Query.parse("p(a, X)?")) == "p(a, X)?"


# ----------------------------------------------------------------------
# Magic rewrite: adornments, stabilisation, structure
# ----------------------------------------------------------------------


class TestMagicRewrite:
    def recursion(self, text: str, name: str = "path") -> LinearRecursion:
        program = parse_program(text)
        (predicate,) = [p for p in program.idb_predicates if p.name == name]
        return program.linear_recursion_of(predicate)

    def test_tc_bound_first_structure(self):
        magic = magic_rewrite(self.recursion(TC_LEFT), (0,))
        assert magic.adornment() == "bf"
        assert magic.magic_predicate.arity == 1
        assert magic.magic_predicate.name == "magic_path_bf"
        (rule,) = magic.magic_rules
        # m(Z) :- m(X), edge(X, Z).
        assert str(rule) == "magic_path_bf(Z) :- magic_path_bf(X), edge(X, Z)."
        assert all(
            rule.body[0].predicate == magic.magic_predicate
            for rule in (*magic.guarded_recursive, *magic.guarded_exit)
        )
        # The guarded rules are still a valid single-predicate linear
        # recursion — the shape the unchanged drivers require.
        LinearRecursion(magic.predicate, magic.guarded_recursive,
                        magic.guarded_exit)

    def test_tc_ground_query_keeps_both_positions(self):
        recursion = self.recursion(TC_LEFT)
        assert stable_bound_positions(recursion, (0, 1)) == (0, 1)
        assert magic_rewrite(recursion, (0, 1)).adornment() == "bb"

    def test_unstable_position_dropped(self):
        # The recursive atom's second position holds a variable no
        # sideways pass can bind, so bb degrades to bf.
        recursion = self.recursion(
            "path(X, Y) :- edge(X, Z), loop(Y, Y), path(Z, W).\n"
            "path(X, Y) :- edge(X, Y)."
        )
        assert stable_bound_positions(recursion, (0, 1)) == (0,)
        assert magic_rewrite(recursion, (0, 1)).adornment() == "bf"

    def test_nothing_stable_raises_not_applicable(self):
        recursion = self.recursion(
            "path(X, Y) :- path(Z, Y), edge(X, W).\n"
            "path(X, Y) :- edge(X, Y)."
        )
        with pytest.raises(NotApplicableError):
            magic_rewrite(recursion, (0,))

    def test_constant_in_rule_head(self):
        # Demand on a constant head position becomes a ground magic fact
        # check; the rewrite must keep compiling and stay exact.
        text = (
            "path(X, Y) :- edge(X, Z), path(Z, Y).\n"
            "path(a, Y) :- special(Y).\n"
            "path(X, Y) :- edge(X, Y)."
        )
        database = Database.of(
            Relation.of("edge", 2, [("a", "b"), ("b", "c")]),
            Relation.of("special", 1, [("z",)]),
        )
        engine = QueryEngine(database, text)
        for text_query in ["path(a, X)?", "path(b, X)?", "path(a, z)?"]:
            query = Query.parse(text_query)
            reference = query.filter(engine.closure(query.predicate))
            forced = engine.ask(query, strategy="magic")
            assert forced.relation.rows == reference.rows

    def test_magic_name_avoids_collisions(self):
        recursion = self.recursion(TC_LEFT)
        magic = magic_rewrite(recursion, (0,),
                              reserved_names=("magic_path_bf",))
        assert magic.magic_predicate.name == "_magic_path_bf"

    def test_non_linear_program_rejected(self):
        program = (
            "path(X, Y) :- path(X, Z), path(Z, Y).\n"
            "path(X, Y) :- edge(X, Y)."
        )
        engine = QueryEngine(
            Database.of(Relation.of("edge", 2, [(1, 2)])), program,
        )
        with pytest.raises(RuleStructureError):
            engine.ask("path(1, X)?")

    def test_equality_atom_propagates_demand(self):
        # X = Z carries the binding sideways even without an EDB atom
        # touching Z directly.
        text = (
            "path(X, Y) :- edge(X, W), X = Z, path(Z, Y).\n"
            "path(X, Y) :- edge(X, Y)."
        )
        engine = QueryEngine(
            Database.of(Relation.of("edge", 2, CYCLIC_EDGES)), text,
        )
        query = Query.parse("path(a, X)?")
        reference = query.filter(engine.closure(query.predicate))
        assert engine.ask(query, strategy="magic").relation.rows == reference.rows

    def test_same_generation_demand_ignores_the_disconnected_side(self):
        recursion = self.recursion(SAME_GENERATION, "sg")
        forward = magic_rewrite(recursion, (0,))
        backward = magic_rewrite(recursion, (1,))
        assert [str(rule) for rule in forward.magic_rules] == [
            "magic_sg_bf(U) :- magic_sg_bf(X), up(X, U)."]
        assert [str(rule) for rule in backward.magic_rules] == [
            "magic_sg_fb(V) :- magic_sg_fb(Y), down(V, Y)."]
        # A ground query demands through both sides at once.
        (both,) = magic_rewrite(recursion, (0, 1)).magic_rules
        assert {atom.predicate.name for atom in both.body[1:]} == {"up", "down"}

        database = same_generation_database(8, 8)
        up = database.relation("up")
        fan_out = max(
            sum(1 for row in up.rows if row[0] == node)
            for node in up.column_values(0))
        statistics = EvaluationStatistics()
        demand = forward.magic_closure((0,), database, statistics)
        assert len(demand.rows) > 8
        assert statistics.derivations <= len(demand.rows) * fan_out

    @pytest.mark.parametrize("text", ["p(1, Y)?", "p(X, 7)?", "p(1, 7)?"])
    def test_bound_only_by_a_disconnected_scan(self, text):
        # Z reaches the recursive atom from e alone: the magic rule must
        # keep e(Z) to stay range-restricted (and f(X) as a filter).
        program = (
            "p(X, Y) :- e(Z), p(Z, Y), f(X).\n"
            "p(X, Y) :- b(X, Y)."
        )
        (rule,) = magic_rewrite(self.recursion(program, "p"), (0,)).magic_rules
        assert str(rule) == "magic_p_bf(Z) :- magic_p_bf(X), e(Z), f(X)."
        assert set(rule.head.variables()) <= {
            variable for atom in rule.body for variable in atom.variables()}
        database = Database.of(
            Relation.of("e", 1, [(2,), (3,)]),
            Relation.of("f", 1, [(1,), (2,)]),
            Relation.of("b", 2, [(2, 7), (3, 8), (4, 9)]),
        )
        engine = QueryEngine(database, program)
        query = Query.parse(text)
        reference = query.filter(solve(program, database, "p"))
        for strategy in ("magic", "auto", "closure"):
            assert engine.ask(query, strategy=strategy).rows == reference.rows

    @pytest.mark.parametrize("down", [
        Relation.empty("down", 2), None], ids=["empty", "absent"])
    def test_dropped_relation_empty_or_absent(self, down):
        # Without down no recursive derivation exists at all; the demand
        # set no longer notices, and the answers must not either.
        full = same_generation_database(5, 4)
        relations = [full.relation("up"), full.relation("flat")]
        database = Database.of(*relations, *([] if down is None else [down]))
        engine = QueryEngine(database, SAME_GENERATION)
        flat = full.relation("flat")
        for row in sorted(flat.rows)[:3]:
            for query in (Query.of("sg", row[0], None),
                          Query.of("sg", None, row[1]),
                          Query.of("sg", *row)):
                answer = engine.ask(query, strategy="magic")
                assert answer.rows == query.filter(flat).rows
                assert answer.rows == engine.ask(query, strategy="closure").rows

    def test_seed_arity_checked(self):
        magic = magic_rewrite(self.recursion(TC_LEFT), (0,))
        with pytest.raises(ValueError):
            magic.magic_seed(("a", "b"))


# ----------------------------------------------------------------------
# Reachability labels
# ----------------------------------------------------------------------


def brute_reach(edges):
    """Reference proper reachability by naive closure."""
    closure = set(edges)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(closure):
            for (c, d) in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    return closure


class TestReachabilityLabels:
    def labels_of(self, edges, reverse=False):
        database = Database.of(Relation.of("edge", 2, edges))
        return build_labels(database, "edge", reverse=reverse)

    def test_chain(self):
        labels = self.labels_of([(i, i + 1) for i in range(5)])
        assert labels.reaches(0, 5)
        assert labels.reaches(2, 3)
        assert not labels.reaches(3, 2)
        assert not labels.reaches(0, 0)
        assert labels.successor_values(2) == {3, 4, 5}

    def test_tree_interval_fast_path(self):
        labels = self.labels_of(tree_edges(3).rows)
        # On a tree every positive answer is a strict interval containment.
        root_interval = labels.interval_of(0)
        for node in range(1, 7):
            pre, post = labels.interval_of(node)
            assert root_interval[0] <= pre and post <= root_interval[1]
            assert labels.reaches(0, node)

    def test_cycle_reaches_itself(self):
        labels = self.labels_of(cycle_edges(4).rows)
        for node in range(4):
            assert labels.reaches(node, node)
        assert labels.successor_values(0) == {0, 1, 2, 3}

    def test_self_loop(self):
        labels = self.labels_of([("f", "f"), ("a", "b")])
        assert labels.reaches("f", "f")
        assert not labels.reaches("a", "a")
        assert not labels.reaches("b", "b")

    def test_empty_relation(self):
        labels = self.labels_of([])
        assert not labels.reaches("a", "b")
        assert labels.successor_values("a") == frozenset()
        assert labels.node_count == 0

    def test_unknown_values(self):
        labels = self.labels_of([("a", "b")])
        assert not labels.reaches("zzz", "a")
        assert not labels.reaches("a", "zzz")
        assert labels.interval_of("zzz") is None

    def test_reverse_gives_predecessors(self):
        labels = self.labels_of([(1, 2), (2, 3), (4, 3)], reverse=True)
        assert labels.successor_values(3) == {1, 2, 4}
        assert set(labels.pairs_from(3)) == {(3, 1), (3, 2), (3, 4)}

    def test_arity_checked(self):
        database = Database.of(Relation.of("e", 3, [(1, 2, 3)]))
        with pytest.raises(ValueError):
            ReachabilityLabels(database.interned_relation("e", 3),
                               database.domain())

    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs_match_brute_force(self, seed):
        rng = random.Random(seed)
        edges = random_graph_edges(10, 18, rng=rng).rows
        labels = self.labels_of(edges)
        expected = brute_reach(edges)
        nodes = {value for edge in edges for value in edge}
        for a in nodes:
            for b in nodes:
                assert labels.reaches(a, b) == ((a, b) in expected), (a, b)
            assert labels.successor_values(a) == {
                b for (x, b) in expected if x == a
            }


# ----------------------------------------------------------------------
# QueryEngine: planning, tiers, parity, caching
# ----------------------------------------------------------------------


class TestQueryEngine:
    def test_plan_picks_cheapest_tier(self):
        engine = tc_engine(CYCLIC_EDGES)
        assert engine.plan("edge(a, X)?") == "edb"
        assert engine.plan("path(a, X)?") == "labels"
        assert engine.plan("path(X, Y)?") == "closure"
        assert engine.plan("path(X, X)?") == "closure"

    def test_plan_magic_when_labels_inapplicable(self):
        # Two recursive rules break the TC shape; magic still applies.
        program = (
            "path(X, Y) :- edge(X, Z), path(Z, Y).\n"
            "path(X, Y) :- hop(X, Z), path(Z, Y).\n"
            "path(X, Y) :- edge(X, Y)."
        )
        database = Database.of(
            Relation.of("edge", 2, [("a", "b"), ("b", "c")]),
            Relation.of("hop", 2, [("b", "d")]),
        )
        engine = QueryEngine(database, program)
        assert engine.plan("path(a, X)?") == "magic"
        query = Query.parse("path(a, X)?")
        reference = query.filter(engine.closure(query.predicate))
        assert engine.ask(query).relation.rows == reference.rows

    @pytest.mark.parametrize("program", [TC_LEFT, TC_RIGHT])
    @pytest.mark.parametrize("text", [
        "path(a, X)?", "path(X, e)?", "path(a, e)?", "path(e, a)?",
        "path(b, b)?", "path(f, f)?", "path(zzz, X)?",
    ])
    def test_all_tiers_bit_identical(self, program, text):
        engine = tc_engine(CYCLIC_EDGES, program)
        query = Query.parse(text)
        reference = query.filter(engine.closure(query.predicate))
        for strategy in ("labels", "magic", "closure", "auto"):
            result = engine.ask(query, strategy=strategy)
            assert result.relation.rows == reference.rows, (strategy, text)

    def test_edb_tier(self):
        engine = tc_engine(CYCLIC_EDGES)
        result = engine.ask("edge(a, X)?")
        assert result.strategy == "edb"
        assert result.rows == {("a", "b")}
        with pytest.raises(NotApplicableError):
            engine.ask("edge(a, X)?", strategy="magic")
        with pytest.raises(NotApplicableError):
            engine.ask("path(a, X)?", strategy="edb")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            tc_engine(CYCLIC_EDGES).ask("path(a, X)?", strategy="warp")

    def test_ground_answer_is_boolean(self):
        engine = tc_engine(CYCLIC_EDGES)
        assert engine.ask("path(a, e)?")
        assert not engine.ask("path(e, a)?")

    def test_answer_iteration_and_bindings(self):
        engine = tc_engine([("a", "b"), ("b", "c")])
        result = engine.ask("path(a, X)?")
        assert list(result) == [("a", "b"), ("a", "c")]
        assert len(result) == 2
        assert list(result.bindings()) == [{"X": "b"}, {"X": "c"}]

    def test_with_database_invalidates_caches(self):
        engine = tc_engine([("a", "b")])
        assert engine.ask("path(a, X)?").rows == {("a", "b")}
        grown = engine.with_database(
            Database.of(Relation.of("edge", 2, [("a", "b"), ("b", "c")]))
        )
        assert grown.ask("path(a, X)?").rows == {("a", "b"), ("a", "c")}
        # The old engine's caches are untouched.
        assert engine.ask("path(a, X)?").rows == {("a", "b")}

    def test_labels_cached_per_engine(self):
        engine = tc_engine(CYCLIC_EDGES)
        assert engine.labels("edge") is engine.labels("edge")
        engine.ask("path(a, X)?", strategy="labels")
        engine.ask("path(X, a)?", strategy="labels")
        assert set(engine._labels) == {("edge", False), ("edge", True)}

    def test_with_database_invalidates_per_relation(self):
        """Mutating ``edge`` must not evict the ``other_edge`` caches."""
        program = (
            "path(X, Y) :- edge(X, Z), path(Z, Y).\n"
            "path(X, Y) :- edge(X, Y).\n"
            "hop(X, Y) :- other_edge(X, Z), hop(Z, Y).\n"
            "hop(X, Y) :- other_edge(X, Y)."
        )
        edge = Relation.of("edge", 2, [("a", "b")])
        other = Relation.of("other_edge", 2, [("x", "y"), ("y", "z")])
        engine = QueryEngine(Database.of(edge, other), program)
        other_labels = engine.labels("other_edge")
        edge_labels = engine.labels("edge")
        hop = engine.closure(Predicate("hop", 2))
        path = engine.closure(Predicate("path", 2))

        grown = Relation.of("edge", 2, [("a", "b"), ("b", "c")])
        sibling = engine.with_database(
            engine.database.with_relation(grown))
        # other_edge untouched: its labels and closure survive by identity.
        assert sibling.labels("other_edge") is other_labels
        assert sibling.closure(Predicate("hop", 2)) is hop
        # edge mutated: its artefacts are rebuilt from the new generation.
        assert sibling.labels("edge") is not edge_labels
        assert sibling.labels("edge").edge_count == 2
        assert sibling.closure(Predicate("path", 2)) is not path
        assert sibling.closure(Predicate("path", 2)).rows == {
            ("a", "b"), ("b", "c"), ("a", "c")}
        # The original engine still serves its own generation.
        assert engine.labels("edge") is edge_labels
        assert engine.closure(Predicate("path", 2)) is path

    def test_in_place_swap_invalidates_own_caches(self):
        engine = tc_engine([("a", "b"), ("b", "c")])
        before = engine.closure(Predicate("path", 2))
        with pytest.warns(DeprecationWarning):
            engine.database.replace_relation(
                Relation.of("edge", 2, [("a", "b")]))
        after = engine.closure(Predicate("path", 2))
        assert after is not before
        assert after.rows == {("a", "b")}

    def test_held_closure_serves_bound_asks_without_a_fixpoint(self):
        database = same_generation_database(6, 5)
        closure = solve(SAME_GENERATION, database, "sg")
        primed = QueryEngine(database, SAME_GENERATION)
        primed.prime_closure(Predicate("sg", 2), closure)
        asked = QueryEngine(database, SAME_GENERATION)
        assert asked.plan("sg(0, Y)?") == "magic"
        asked.ask("sg(X, Y)?")
        row = min(closure.rows)
        queries = [Query.of("sg", *row), Query.of("sg", row[0], -1),
                   Query.of("sg", row[0], None), Query.of("sg", None, row[1])]
        for engine in (primed, asked):
            for query in queries:
                assert engine.plan(query) == "closure"
                answer = engine.ask(query)
                assert answer.strategy == "closure"
                assert answer.statistics.iterations == 0
                assert answer.statistics.derivations == 0
                assert answer.rows == engine.ask(query, strategy="magic").rows
                assert answer.rows == query.filter(closure).rows
            (held,) = engine._closures.values()
            assert set(held.indexes) == {(0,), (1,)}
        # A repeated variable filters the index bucket.
        wide = QueryEngine(
            Database.of(Relation.of("s", 3, [(1, 2, 2), (1, 2, 3), (2, 5, 5)])),
            "t(A, X, Y) :- s(A, X, Z), t(A, Z, Y).\n"
            "t(A, X, Y) :- s(A, X, Y).")
        wide.ask("t(A, X, Y)?")
        answer = wide.ask("t(1, X, X)?")
        assert answer.strategy == "closure"
        assert answer.rows == {(1, 2, 2)}
        assert answer.rows == wide.ask("t(1, X, X)?", strategy="magic").rows

    def test_labels_stay_ahead_of_the_closure_index(self):
        engine = tc_engine(CYCLIC_EDGES)
        engine.ask("path(X, Y)?")
        assert engine.plan("path(a, e)?") == "closure"  # one membership test
        assert engine.ask("path(a, X)?").strategy == "labels"
        assert engine.ask("path(X, e)?").strategy == "labels"
        (held,) = engine._closures.values()
        assert not held.indexes

    def test_closure_index_lives_and_dies_with_the_closure(self):
        program = SAME_GENERATION + (
            "\nhop(X, Y) :- other(X, Z), hop(Z, Y), mark(X).\n"
            "hop(X, Y) :- other(X, Y).")
        base = same_generation_database(4, 4)
        database = Database.of(
            *base, Relation.of("other", 2, [(1, 2), (2, 3)]),
            Relation.of("mark", 1, [(1,), (2,)]))
        engine = QueryEngine(database, program)
        for name in ("sg", "hop"):
            engine.closure(Predicate(name, 2))
        engine.ask("sg(0, Y)?")
        engine.ask("hop(1, Y)?")
        sg_held = engine._closures[Predicate("sg", 2)]
        hop_held = engine._closures[Predicate("hop", 2)]
        assert set(sg_held.indexes) == set(hop_held.indexes) == {(0,)}

        sibling = engine.with_database(database.with_relation(
            Relation.of("other", 2, [(1, 2)])))
        assert sibling._closures == {Predicate("sg", 2): sg_held}
        assert sibling.ask("sg(0, Y)?").rows == engine.ask("sg(0, Y)?").rows
        assert sibling.plan("hop(1, Y)?") == "magic"
        assert sibling.ask("hop(1, Y)?").rows == {(1, 2)}
        # Re-priming the relation already held keeps its indexes; a new
        # relation starts without any.
        sibling.prime_closure(Predicate("sg", 2), sg_held.relation)
        assert sibling._closures[Predicate("sg", 2)] is sg_held
        sibling.prime_closure(
            Predicate("sg", 2), Relation.of("sg", 2, sg_held.relation.rows))
        assert not sibling._closures[Predicate("sg", 2)].indexes

    def test_arity_mismatch_raises_instead_of_answering_empty(self):
        engine = QueryEngine(same_generation_database(3, 3), SAME_GENERATION)
        for call in (engine.ask, engine.plan):
            with pytest.raises(SchemaError, match="sg has arity 2, expected 1"):
                call("sg(1)?")
        with pytest.raises(SchemaError):
            engine.ask("sg(1, 2, 3)?", strategy="closure")
        # The stored case always raised; it must keep doing so.
        with pytest.raises(SchemaError, match="up has arity 2, expected 1"):
            engine.ask("up(1)?")

    def test_served_counts_tiers_and_fallbacks(self):
        engine = tc_engine(CYCLIC_EDGES)
        assert dict(engine.served) == {}
        engine.ask("edge(a, X)?")
        engine.ask("path(a, X)?")
        engine.ask("path(a, X)?", strategy="magic")
        engine.ask("path(X, Y)?")
        engine.ask("path(a, e)?")
        assert dict(engine.served) == {
            "edb": 1, "labels": 1, "magic": 1, "closure": 2}
        with pytest.raises(TypeError):
            engine.served["edb"] = 0
        sibling = engine.with_database(engine.database)
        sibling.ask("edge(a, X)?")
        assert engine.served["edb"] == sibling.served["edb"] == 2

        # No stable bound position: the demand rewrite does not apply.
        unrestricted = QueryEngine(
            Database.of(Relation.of("edge", 2, CYCLIC_EDGES)),
            "path(X, Y) :- path(Z, Y), edge(X, W).\n"
            "path(X, Y) :- edge(X, Y).")
        unrestricted.ask("path(a, X)?")
        assert dict(unrestricted.served) == {"closure": 1, "magic_fallback": 1}
        unrestricted.ask("path(a, X)?")  # held now: not a fallback
        unrestricted.ask("path(X, Y)?")
        assert dict(unrestricted.served) == {"closure": 3, "magic_fallback": 1}

    def test_no_program_edb_only(self):
        engine = QueryEngine(Database.of(Relation.of("e", 2, [(1, 2)])))
        assert engine.ask("e(1, X)?").rows == {(1, 2)}
        with pytest.raises(NotApplicableError):
            engine.recursion_of(Predicate("p", 2))

    def test_one_shot_answer(self):
        database = Database.of(Relation.of("edge", 2, [(1, 2), (2, 3)]))
        result = answer("path(1, X)?", TC_LEFT, database)
        assert result.rows == {(1, 2), (1, 3)}

    def test_transitive_closure_edge_detection(self):
        assert transitive_closure_edge(
            parse_program(TC_LEFT).linear_recursion_of(Predicate("path", 2))
        ) == "edge"
        assert transitive_closure_edge(
            parse_program(TC_RIGHT).linear_recursion_of(Predicate("path", 2))
        ) == "edge"
        other = parse_program(
            "path(X, Y) :- edge(X, Z), path(Z, Y).\n"
            "path(X, Y) :- hop(X, Y)."
        ).linear_recursion_of(Predicate("path", 2))
        assert transitive_closure_edge(other) is None


# ----------------------------------------------------------------------
# Parity across every mode and backend spelling
# ----------------------------------------------------------------------


class TestParityAcrossConfigs:
    @pytest.mark.parametrize("config", list(ALL_CONFIGS.values()),
                             ids=list(ALL_CONFIGS))
    def test_magic_parity_on_every_config(self, config):
        edges = layered_dag_edges(6, 4, rng=random.Random(3)).rows
        engine = tc_engine(edges, config=config)
        reference_engine = tc_engine(edges)
        source = sorted(edges)[0][0]
        for text in [f"path({source}, X)?", f"path(X, {source})?"]:
            query = Query.parse(text)
            reference = query.filter(
                reference_engine.closure(query.predicate)
            )
            result = engine.ask(query, strategy="magic")
            assert result.relation.rows == reference.rows, (config, text)


# ----------------------------------------------------------------------
# Property sweeps (hypothesis)
# ----------------------------------------------------------------------


edges_strategy = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=0, max_size=30
)


class TestPropertyParity:
    @SETTINGS
    @given(edges=edges_strategy, source=st.integers(0, 9),
           target=st.integers(0, 9))
    def test_tc_tiers_agree_on_random_graphs(self, edges, source, target):
        engine = tc_engine(edges or [(0, 1)])
        full = engine.closure(Predicate("path", 2))
        for query in (Query.of("path", source, None),
                      Query.of("path", None, target),
                      Query.of("path", source, target)):
            reference = query.filter(full)
            for strategy in ("labels", "magic"):
                result = engine.ask(query, strategy=strategy)
                assert result.relation.rows == reference.rows, strategy

    @SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_magic_parity_on_random_restricted_rules(self, seed):
        """Demand-rewritten == full-closure-filtered on generated rules."""
        rng = random.Random(seed)
        arity = rng.choice((2, 3))
        rules = tuple(
            random_restricted_rule(arity, rng.randint(1, 2), rng,
                                   predicate_prefix=prefix)
            for prefix in ("q", "r")[: rng.randint(1, 2)]
        )
        recursion = LinearRecursion(Predicate("p", arity), rules, ())
        domain = list(range(6))
        database = Database.of(*[
            Relation.of(name.name, 2, [
                (rng.choice(domain), rng.choice(domain)) for _ in range(8)
            ])
            for rule in rules for name in
            {atom.predicate for atom in rule.nonrecursive_atoms()
             if not atom.is_equality()}
        ])
        initial = Relation.of("p", arity, [
            tuple(rng.choice(domain) for _ in range(arity)) for _ in range(4)
        ])
        full = seminaive_closure(rules, initial, database)
        bound_value = rng.choice(domain)
        query = Query.of("p", bound_value, *[None] * (arity - 1))
        reference = query.filter(full)
        try:
            magic = magic_rewrite(recursion, query.bound_positions,
                                  reserved_names=database.names())
        except NotApplicableError:
            return  # nothing stable: full closure is the documented plan
        for config in SERIAL_CONFIGS:
            demanded = magic.solve(
                (bound_value,), database, initial=initial, config=config,
            )
            assert query.filter(demanded).rows == reference.rows, config


# ----------------------------------------------------------------------
# The solve() surface and EvalConfig.from_spec
# ----------------------------------------------------------------------


class TestSolveApi:
    DATABASE = Database.of(Relation.of("edge", 2, [(1, 2), (2, 3), (3, 4)]))

    def test_solve_text_program(self):
        closure = solve(TC_LEFT, self.DATABASE)
        assert len(closure.rows) == 6

    def test_solve_with_spec_config(self):
        closure = solve(TC_LEFT, self.DATABASE, config="interned")
        assert len(closure.rows) == 6

    def test_solve_resolves_named_predicate(self):
        program = TC_LEFT + "\nreach(X) :- edge(Y, X)."
        with pytest.raises(RuleStructureError, match="2 predicates"):
            solve(program, self.DATABASE)
        assert len(solve(program, self.DATABASE, predicate="path").rows) == 6
        with pytest.raises(RuleStructureError, match="No rules"):
            solve(program, self.DATABASE, predicate="nope")

    @pytest.mark.parametrize("spec,mode,backend", [
        ("", "rows", "serial"),
        ("batch", "batch", "serial"),
        ("interned", "interned", "serial"),
        ("threads-interned", "interned", "threads"),
        ("interned-processes", "interned", "processes"),
    ])
    def test_from_spec(self, spec, mode, backend):
        """*backend* is the spelled backend; every spelling means serial."""
        config = EvalConfig.from_spec(spec)
        assert config.mode() == mode
        assert config.backend == "serial"
        assert config == EvalConfig.from_spec(spec.replace(backend, "serial"))
        assert config.spec() == EvalConfig.from_spec(config.spec()).spec()

    @pytest.mark.parametrize("spec", ["rows-batch", "threads-serial",
                                      "threads", "processes-batch",
                                      "warp", "rows--"])
    def test_from_spec_rejects(self, spec):
        # Empty tokens are skipped, and a backend token alone no longer
        # makes a spec invalid (every backend spelling means serial), so
        # these three parse; the other three still raise.
        accepted = {"rows--": "rows-serial", "threads": "rows-serial",
                    "processes-batch": "batch-serial"}
        if spec in accepted:
            assert EvalConfig.from_spec(spec).spec() == accepted[spec]
        else:
            with pytest.raises(ValueError):
                EvalConfig.from_spec(spec)

    def test_from_spec_keyword_conflict(self):
        with pytest.raises(ValueError, match="twice"):
            EvalConfig.from_spec("threads", backend="processes")
        assert EvalConfig.from_spec(
            "interned-threads", max_workers=2
        ).max_workers == 2
