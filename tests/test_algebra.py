"""Tests for the operator algebra (repro.algebra)."""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra.closure import (
    bounded_power_apply,
    closure_apply,
    closure_apply_product,
    closure_apply_sum,
)
from repro.algebra.operator import (
    IdentityOperator,
    LinearOperator,
    SumOperator,
    ZeroOperator,
    operators_from_rules,
)
from repro.algebra.ordering import (
    empirically_equal,
    empirically_leq,
    operator_equal,
    operator_leq,
)
from repro.algebra.properties import (
    WITNESS_MEMO_SIZE,
    _canonical_witness,
    boundedness_witness,
    canonical_form,
    default_horizon,
    is_torsion,
    is_uniformly_bounded,
    torsion_period,
)
from repro.core.redundancy import find_redundant_predicates
from repro.datalog.atoms import Atom, Predicate
from repro.datalog.parser import parse_rule
from repro.datalog.rules import Rule
from repro.datalog.terms import Variable
from repro.workloads.rulegen import random_restricted_rule
from repro.workloads.wide import wide5_workload
from repro.exceptions import RuleStructureError, SchemaError
from repro.storage.database import Database
from repro.storage.relation import Relation

PREPEND = parse_rule("path(X, Y) :- edge(X, U), path(U, Y).")
APPEND = parse_rule("path(X, Y) :- path(X, V), hop(V, Y).")


@pytest.fixture
def database():
    return Database.of(
        Relation.of("edge", 2, [(0, 1), (1, 2), (2, 3)]),
        Relation.of("hop", 2, [(2, 4), (3, 4)]),
    )


@pytest.fixture
def identity_relation():
    return Relation.of("path", 2, [(i, i) for i in range(5)])


class TestLinearOperator:
    def test_apply_once(self, database, identity_relation):
        operator = LinearOperator(PREPEND, label="B")
        applied = operator.apply(identity_relation, database)
        assert applied.rows == database.relation("edge").rows

    def test_apply_checks_arity(self, database):
        operator = LinearOperator(PREPEND)
        with pytest.raises(SchemaError):
            operator.apply(Relation.of("path", 3, []), database)

    def test_nonlinear_rule_rejected(self):
        with pytest.raises(RuleStructureError):
            LinearOperator(parse_rule("p(X) :- q(X)."))

    def test_multiplication_is_composition(self, database, identity_relation):
        b = LinearOperator(PREPEND, label="B")
        c = LinearOperator(APPEND, label="C")
        product = b * c
        # (B C) Q == B (C Q) pointwise.
        direct = b.apply(c.apply(identity_relation, database), database)
        assert product.apply(identity_relation, database).rows == direct.rows

    def test_power_zero_is_identity(self, database, identity_relation):
        operator = LinearOperator(PREPEND)
        assert operator.power(0).apply(identity_relation, database).rows == identity_relation.rows

    def test_power_two(self, database, identity_relation):
        operator = LinearOperator(PREPEND)
        twice = operator.apply(operator.apply(identity_relation, database), database)
        assert operator.power(2).apply(identity_relation, database).rows == twice.rows

    def test_cross_predicate_multiplication_rejected(self):
        other = parse_rule("q(X) :- e(X, Y), q(Y).")
        with pytest.raises(RuleStructureError):
            LinearOperator(PREPEND) * LinearOperator(other)


class TestSumIdentityZero:
    def test_sum_is_union(self, database, identity_relation):
        total = SumOperator.of(LinearOperator(PREPEND), LinearOperator(APPEND))
        union = LinearOperator(PREPEND).apply(identity_relation, database).union(
            LinearOperator(APPEND).apply(identity_relation, database)
        )
        assert total.apply(identity_relation, database).rows == union.rows

    def test_sum_flattens(self):
        nested = SumOperator.of(
            SumOperator.of(LinearOperator(PREPEND)), LinearOperator(APPEND)
        )
        assert len(nested.operators) == 2

    def test_sum_requires_compatible_operands(self):
        other = parse_rule("q(X) :- e(X, Y), q(Y).")
        with pytest.raises(RuleStructureError):
            SumOperator.of(LinearOperator(PREPEND), LinearOperator(other))

    def test_identity_operator(self, database, identity_relation):
        identity = IdentityOperator("path", 2)
        assert identity.apply(identity_relation, database) is identity_relation

    def test_zero_operator(self, database, identity_relation):
        zero = ZeroOperator("path", 2)
        assert zero.apply(identity_relation, database).is_empty()

    def test_operators_from_rules_labels(self):
        operators = operators_from_rules([PREPEND, APPEND])
        assert [operator.label for operator in operators] == ["A", "B"]


class TestOrdering:
    def test_operator_leq_by_extra_conjunct(self):
        loose = parse_rule("p(X, Y) :- p(U, Y), q(X, U).")
        tight = parse_rule("p(X, Y) :- p(U, Y), q(X, U), s(X).")
        assert operator_leq(LinearOperator(tight), LinearOperator(loose))
        assert not operator_leq(LinearOperator(loose), LinearOperator(tight))

    def test_operator_equal_modulo_renaming(self):
        first = parse_rule("p(X, Y) :- p(U, Y), q(X, U).")
        second = parse_rule("p(A, B) :- p(W, B), q(A, W).")
        assert operator_equal(LinearOperator(first), LinearOperator(second))

    def test_empirical_checks(self, database, identity_relation):
        b = LinearOperator(PREPEND)
        total = SumOperator.of(b, LinearOperator(APPEND))
        assert empirically_leq(b, total, identity_relation, database)
        assert empirically_equal(b, b, identity_relation, database)


class TestClosure:
    def test_closure_apply_matches_seminaive(self, database, identity_relation):
        from repro.engine.seminaive import seminaive_closure

        operator = LinearOperator(PREPEND)
        assert closure_apply(operator, identity_relation, database).rows == seminaive_closure(
            (PREPEND,), identity_relation, database
        ).rows

    def test_closure_of_sum(self, database, identity_relation):
        from repro.engine.seminaive import seminaive_closure

        closure = closure_apply_sum(
            [LinearOperator(PREPEND), LinearOperator(APPEND)], identity_relation, database
        )
        direct = seminaive_closure((PREPEND, APPEND), identity_relation, database)
        assert closure.rows == direct.rows

    def test_closure_product_order(self, database, identity_relation):
        # B* C* Q applies C* first.
        product = closure_apply_product(
            [LinearOperator(PREPEND), LinearOperator(APPEND)], identity_relation, database
        )
        c_first = closure_apply(LinearOperator(APPEND), identity_relation, database)
        expected = closure_apply(LinearOperator(PREPEND), c_first, database)
        assert product.rows == expected.rows

    def test_closure_sum_of_nothing(self, database, identity_relation):
        assert closure_apply_sum([], identity_relation, database) is identity_relation

    def test_bounded_power_apply(self, database, identity_relation):
        operator = LinearOperator(PREPEND)
        one_step = identity_relation.union(
            operator.apply(identity_relation, database).renamed("path")
        )
        assert bounded_power_apply(operator, identity_relation, database, 1).rows == one_step.rows


class TestBoundednessProperties:
    def test_filter_rule_is_torsion(self):
        rule = parse_rule("p(X, Y) :- p(X, Y), cheap(Y).")
        assert is_torsion(rule)
        assert is_uniformly_bounded(rule)
        low, high = torsion_period(rule)
        assert low < high

    def test_chain_rule_is_not_uniformly_bounded(self):
        assert not is_uniformly_bounded(PREPEND, max_power=6)
        assert torsion_period(PREPEND, max_power=6) is None

    def test_witness_reports_equality_flag(self):
        rule = parse_rule("p(X, Y) :- p(X, Y), cheap(Y).")
        witness = boundedness_witness(rule)
        assert witness is not None and witness.equal
        assert "r^" in str(witness)

    def test_swap_rule_is_torsion_with_period_two(self):
        rule = parse_rule("p(X, Y) :- p(Y, X).")
        witness = boundedness_witness(rule, require_equality=True)
        assert witness is not None
        assert witness.high - witness.low == 2


def renamed(rule, rng):
    """*rule* under a random bijective renaming of its variables and of
    every predicate but equality."""
    variables = list(rule.variables())
    names = [f"R{index}" for index in range(len(variables))]
    rng.shuffle(names)
    variable_map = {old: Variable(new) for old, new in zip(variables, names)}
    predicates = sorted({atom.predicate for atom in (rule.head, *rule.body)
                         if not atom.is_equality()})
    names = [f"s{index}" for index in range(len(predicates))]
    rng.shuffle(names)
    predicate_map = {old: Predicate(new, old.arity)
                     for old, new in zip(predicates, names)}

    def rename(atom):
        return Atom(predicate_map.get(atom.predicate, atom.predicate),
                    tuple(variable_map.get(term, term) for term in atom.arguments))

    return Rule(rename(rule.head), tuple(rename(atom) for atom in rule.body))


#: Shapes rulegen cannot produce: equality atoms and constants.
EQUALITY_RULES = (
    "p(X, Y) :- p(U, Y), q0(X, U), X = 2.",
    "p(X, Y) :- p(X, V), q0(V, Y), V = Y.",
    "p(X, Y) :- p(X, Y), q0(Y, 1).",
)


class TestWitnessMemo:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 10_000), st.booleans())
    def test_bijective_renaming_costs_one_miss(self, seed, require_equality):
        rng = random.Random(seed)
        if rng.random() < 0.25:
            rule = parse_rule(rng.choice(EQUALITY_RULES))
        else:
            rule = random_restricted_rule(rng.randint(1, 3), rng.randint(1, 3), rng)
        boundedness_witness.cache_clear()
        witness = boundedness_witness(rule, require_equality=require_equality)
        assert boundedness_witness(
            renamed(rule, rng), require_equality=require_equality) == witness
        assert boundedness_witness.cache_info().misses == 1
        # The uncached search on the caller's own rule agrees.
        assert witness == _canonical_witness.__wrapped__(
            rule, default_horizon(rule), require_equality)

    def test_wide5_rules_cost_one_miss(self):
        rules, _, _ = wide5_workload(2, 2)
        boundedness_witness.cache_clear()
        for rule in rules:
            find_redundant_predicates(rule)
        info = boundedness_witness.cache_info()
        assert (info.misses, info.hits) == (1, len(rules) - 1)

    def test_equality_never_shares_a_key_with_a_binary_predicate(self):
        with_equality = parse_rule("p(X, Y) :- p(X, Z), Z = Y.")
        with_predicate = parse_rule("p(X, Y) :- p(X, Z), e(Z, Y).")
        assert canonical_form(with_equality) != canonical_form(with_predicate)
        assert any(atom.is_equality() for atom in canonical_form(with_equality).body)
        boundedness_witness.cache_clear()
        boundedness_witness(with_equality)
        boundedness_witness(with_predicate)
        assert boundedness_witness.cache_info().misses == 2

    def test_memo_is_bounded_by_the_module_constant(self):
        assert boundedness_witness.cache_info().maxsize == WITNESS_MEMO_SIZE
