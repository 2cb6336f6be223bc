"""Unit tests for conjunctive-query containment and equivalence."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cq.containment import is_contained_in, is_equivalent, strictly_contained_in
from repro.cq.minimize import is_minimal, minimize_rule
from repro.datalog.atoms import Atom, Predicate
from repro.datalog.parser import parse_rule
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Variable


class TestContainment:
    def test_more_constrained_is_contained(self):
        tight = parse_rule("p(X) :- e(X, Z), f(Z).")
        loose = parse_rule("p(X) :- e(X, Z).")
        assert is_contained_in(tight, loose)
        assert not is_contained_in(loose, tight)

    def test_containment_is_reflexive(self):
        rule = parse_rule("p(X, Y) :- e(X, Z), e(Z, Y).")
        assert is_contained_in(rule, rule)

    def test_containment_with_constants(self):
        constant_rule = parse_rule("p(X) :- e(X, a).")
        variable_rule = parse_rule("p(X) :- e(X, Z).")
        assert is_contained_in(constant_rule, variable_rule)
        assert not is_contained_in(variable_rule, constant_rule)

    def test_strict_containment(self):
        tight = parse_rule("p(X) :- e(X, Z), f(Z).")
        loose = parse_rule("p(X) :- e(X, Z).")
        assert strictly_contained_in(tight, loose)
        assert not strictly_contained_in(loose, loose)

    def test_incomparable_rules(self):
        left = parse_rule("p(X) :- e(X, Z).")
        right = parse_rule("p(X) :- f(X, Z).")
        assert not is_contained_in(left, right)
        assert not is_contained_in(right, left)


class TestEquivalence:
    def test_renamed_rules_are_equivalent(self):
        first = parse_rule("p(X, Y) :- e(X, Z), e(Z, Y).")
        second = parse_rule("p(X, Y) :- e(X, W), e(W, Y).")
        assert is_equivalent(first, second)

    def test_redundant_atom_preserves_equivalence(self):
        minimal = parse_rule("p(X) :- e(X, Z).")
        redundant = parse_rule("p(X) :- e(X, Z), e(X, W).")
        assert is_equivalent(minimal, redundant)

    def test_non_equivalent_rules(self):
        chain2 = parse_rule("p(X, Y) :- e(X, Z), e(Z, Y).")
        chain3 = parse_rule("p(X, Y) :- e(X, Z), e(Z, W), e(W, Y).")
        assert not is_equivalent(chain2, chain3)

    def test_body_order_is_irrelevant(self):
        first = parse_rule("p(X) :- a(X), b(X), c(X).")
        second = parse_rule("p(X) :- c(X), a(X), b(X).")
        assert is_equivalent(first, second)


class TestMinimization:
    def test_redundant_atom_removed(self):
        redundant = parse_rule("p(X) :- e(X, Z), e(X, W).")
        core = minimize_rule(redundant)
        assert len(core.body) == 1
        assert is_equivalent(core, redundant)

    def test_minimal_rule_unchanged(self):
        rule = parse_rule("p(X, Y) :- e(X, Z), e(Z, Y).")
        assert len(minimize_rule(rule).body) == 2
        assert is_minimal(rule)

    def test_classic_triangle_core(self):
        # The path of length 2 folds onto the edge when the head only
        # exposes the start point.
        rule = parse_rule("p(X) :- e(X, Y), e(Y, Z), e(X, W).")
        core = minimize_rule(rule)
        assert is_equivalent(core, rule)
        assert len(core.body) <= 2

    def test_head_variables_keep_atoms_alive(self):
        rule = parse_rule("p(X, Y) :- e(X, Z), e(X, Y).")
        core = minimize_rule(rule)
        assert any("Y" in str(atom) for atom in core.body)

    def test_is_minimal_detects_redundancy(self):
        assert not is_minimal(parse_rule("p(X) :- e(X, Z), e(X, W)."))


def restart_minimize(rule):
    """The textbook core loop: after every removal, start over at atom 0.

    The oracle for :func:`minimize_rule`'s single pass, which must return
    the very same rule (same atoms, same order).
    """
    body = list(rule.body)
    changed = True
    while changed:
        changed = False
        for index in range(len(body)):
            candidate = body[:index] + body[index + 1:]
            if is_contained_in(Rule(rule.head, tuple(candidate)),
                               Rule(rule.head, tuple(body))):
                body = candidate
                changed = True
                break
    return Rule(rule.head, tuple(body))


#: Every rule written out above.
FILE_RULES = (
    "p(X) :- e(X, Z), f(Z).",
    "p(X) :- e(X, Z).",
    "p(X, Y) :- e(X, Z), e(Z, Y).",
    "p(X) :- e(X, a).",
    "p(X) :- f(X, Z).",
    "p(X, Y) :- e(X, W), e(W, Y).",
    "p(X) :- e(X, Z), e(X, W).",
    "p(X, Y) :- e(X, Z), e(Z, W), e(W, Y).",
    "p(X) :- a(X), b(X), c(X).",
    "p(X) :- c(X), a(X), b(X).",
    "p(X) :- e(X, Y), e(Y, Z), e(X, W).",
    "p(X, Y) :- e(X, Z), e(X, Y).",
)


@st.composite
def cq_rules(draw):
    """Random CQs with up to six atoms over two binary-or-less predicates,
    repeated variables and a constant — bodies that often fold."""
    terms = st.sampled_from([Variable(name) for name in "XYZUVW"] + [Constant("a")])
    predicates = [Predicate("e", 2), Predicate("f", draw(st.integers(1, 2)))]
    body = tuple(
        Atom(predicate, tuple(draw(terms) for _ in range(predicate.arity)))
        for predicate in draw(st.lists(st.sampled_from(predicates), max_size=6))
    )
    head = Atom(Predicate("p", 1), (draw(terms),))
    return Rule(head, body)


class TestSinglePassMinimization:
    @pytest.mark.parametrize("text", FILE_RULES)
    def test_matches_restart_loop_on_file_rules(self, text):
        rule = parse_rule(text)
        assert minimize_rule(rule) == restart_minimize(rule)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(cq_rules())
    def test_matches_restart_loop_on_random_rules(self, rule):
        core = minimize_rule(rule)
        assert core == restart_minimize(rule)
        assert is_equivalent(core, rule)
