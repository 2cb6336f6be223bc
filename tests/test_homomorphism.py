"""Unit tests for homomorphism search between rules."""

import itertools

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cq.homomorphism import (
    count_homomorphisms,
    find_homomorphism,
    homomorphisms,
    is_homomorphism,
)
from repro.datalog.atoms import Atom, Predicate
from repro.datalog.parser import parse_rule
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Variable


class TestFindHomomorphism:
    def test_identity_homomorphism(self):
        rule = parse_rule("p(X, Y) :- e(X, Z), e(Z, Y).")
        mapping = find_homomorphism(rule, rule)
        assert mapping is not None
        assert is_homomorphism(mapping, rule, rule)

    def test_folding_homomorphism(self):
        general = parse_rule("p(X) :- e(X, Z), e(X, W).")
        specific = parse_rule("p(X) :- e(X, Z).")
        mapping = find_homomorphism(general, specific)
        assert mapping is not None
        assert mapping[Variable("Z")] == mapping[Variable("W")]

    def test_no_homomorphism_when_atom_missing(self):
        source = parse_rule("p(X) :- e(X, Z), f(Z).")
        target = parse_rule("p(X) :- e(X, Z).")
        assert find_homomorphism(source, target) is None

    def test_distinguished_variables_must_be_fixed(self):
        source = parse_rule("p(X, Y) :- e(X, Y).")
        target = parse_rule("p(X, Y) :- e(Y, X).")
        assert find_homomorphism(source, target) is None

    def test_head_predicate_must_match(self):
        source = parse_rule("p(X) :- e(X, X).")
        target = parse_rule("q(X) :- e(X, X).")
        assert find_homomorphism(source, target) is None

    def test_constants_map_to_themselves(self):
        source = parse_rule("p(X) :- e(X, a).")
        target_same = parse_rule("p(X) :- e(X, a).")
        target_other = parse_rule("p(X) :- e(X, b).")
        assert find_homomorphism(source, target_same) is not None
        assert find_homomorphism(source, target_other) is None

    def test_positional_head_correspondence(self):
        # Heads with different variable names but the same pattern.
        source = parse_rule("p(A, B) :- e(A, B).")
        target = parse_rule("p(X, Y) :- e(X, Y), f(Y).")
        mapping = find_homomorphism(source, target)
        assert mapping is not None
        assert mapping[Variable("A")] == Variable("X")


class TestEnumerationAndChecking:
    def test_homomorphism_count_on_cycle(self):
        # Body is a 2-cycle with no head variables involved: both rotations work.
        source = parse_rule("p(X) :- q(X), e(A, B), e(B, A).")
        target = parse_rule("p(X) :- q(X), e(A, B), e(B, A).")
        assert count_homomorphisms(source, target) >= 2

    def test_homomorphisms_yields_only_valid_mappings(self):
        source = parse_rule("p(X) :- e(X, Z), f(Z, W).")
        target = parse_rule("p(X) :- e(X, U), f(U, V), f(U, W).")
        for mapping in homomorphisms(source, target):
            assert is_homomorphism(mapping, source, target)

    def test_is_homomorphism_rejects_bad_mapping(self):
        source = parse_rule("p(X) :- e(X, Z).")
        target = parse_rule("p(X) :- e(X, U).")
        bad = {Variable("Z"): Variable("X")}
        assert not is_homomorphism(bad, source, target)

    def test_count_respects_limit(self):
        source = parse_rule("p(X) :- q(X), e(A, B).")
        target = parse_rule("p(X) :- q(X), e(A, B), e(C, D), e(E, F).")
        assert count_homomorphisms(source, target, limit=2) == 2

    def test_empty_body_always_maps(self):
        source = parse_rule("p(a).")
        target = parse_rule("p(a).")
        assert find_homomorphism(source, target) is not None


# ----------------------------------------------------------------------
# The indexed search against a brute-force enumerator
# ----------------------------------------------------------------------

#: Small pools so random rules share terms and collide often: four
#: variables (repeats within an atom are likely) and two constants.
TERMS = st.sampled_from(
    [Variable(name) for name in "XYZW"] + [Constant("a"), Constant("b")])


@st.composite
def rule_pairs(draw):
    """Two random CQs over one head predicate and at most two body
    predicates of arity <= 3, with <= 4 body atoms each."""
    head = Predicate("h", draw(st.integers(0, 2)))
    body_predicates = [Predicate(name, draw(st.integers(0, 3)))
                       for name in ("e", "f")[:draw(st.integers(1, 2))]]

    def atom(predicate):
        return Atom(predicate, tuple(draw(TERMS) for _ in range(predicate.arity)))

    def rule():
        body = tuple(atom(draw(st.sampled_from(body_predicates)))
                     for _ in range(draw(st.integers(0, 4))))
        return Rule(atom(head), body)

    return rule(), rule()


def brute_force(source, target):
    """Every map from source variables to target terms that is a homomorphism."""
    variables = source.variables()
    pool = {term for atom in (target.head, *target.body) for term in atom.arguments}
    found = set()
    for images in itertools.product(sorted(pool, key=repr), repeat=len(variables)):
        mapping = dict(zip(variables, images))
        if is_homomorphism(mapping, source, target):
            found.add(frozenset(mapping.items()))
    return found


class TestAgainstBruteForce:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rule_pairs())
    def test_same_homomorphisms_as_brute_force(self, pair):
        source, target = pair
        yielded = list(homomorphisms(source, target))
        assert all(is_homomorphism(mapping, source, target) for mapping in yielded)
        expected = brute_force(source, target)
        assert {frozenset(mapping.items()) for mapping in yielded} == expected
        assert count_homomorphisms(source, target) == len(expected)
        assert (find_homomorphism(source, target) is None) == (not expected)

    def test_duplicate_target_atoms_yield_each_mapping_once(self):
        source = parse_rule("p(X) :- e(X, Z).")
        target = parse_rule("p(X) :- e(X, U), e(X, U), e(X, V).")
        assert count_homomorphisms(source, target) == 2
