"""Operator properties: torsion and uniform boundedness (Sections 4.2, 6.2).

An operator ``B`` is *uniformly bounded* if ``B^N <= B^K`` for some
``K < N`` and *torsion* if ``B^N = B^K`` for some ``K < N``.  Every
torsion operator is uniformly bounded; Lemma 6.2 shows the converse holds
for the restricted rule class (no repeated consequent variables, no
repeated nonrecursive predicates).

Uniform boundedness of arbitrary rules is undecidable in general, so the
checks here search powers up to a horizon.  The default horizon is
``2 * d + 2`` where ``d`` is the number of distinguished variables: for
the restricted class, the dynamic-arc structure of the a-graph is a
function on at most ``d`` elements, whose eventual period plus tail is at
most ``d``, and the paper's examples (and Naughton's) are all caught well
inside this bound.  Callers can pass a larger horizon when in doubt; a
negative answer at a finite horizon is reported as "not detected" via the
returned witness being ``None``.

The witness depends only on the rule, never on the data, and the
analysis asks for it again for every rule it classifies (redundancy,
torsion, uniform boundedness).  :func:`boundedness_witness` therefore
memoises it in one
bounded LRU cache (:data:`WITNESS_MEMO_SIZE` entries) keyed by the
rule's :func:`canonical_form` plus the horizon and ``require_equality``.
The canonical form renames variables and every predicate except
equality in first-occurrence order.  That is sound because the witness
is a statement about containments between powers of the rule, and a
bijective renaming of variables and uninterpreted predicate names maps
each homomorphism to a homomorphism of the renamed rules, so every
containment — and with it the frozen ``(low, high, equal)`` triple — is
unchanged.  Equality is interpreted, so ``X = Y`` keeps its name and
never shares a key with an ordinary binary predicate.  Constants are
left as they are, which can only make keys finer.  The witness holds
two exponents and a flag, so nothing of the caller's rule leaks through
the memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from repro.cq.containment import is_contained_in, is_equivalent
from repro.cq.minimize import minimize_rule
from repro.datalog.atoms import EQUALITY_PREDICATE, Atom, Predicate
from repro.datalog.composition import power
from repro.datalog.rules import Rule
from repro.datalog.terms import Term, Variable

#: Entries kept by the :func:`boundedness_witness` memo.
WITNESS_MEMO_SIZE = 256


@dataclass(frozen=True)
class BoundednessWitness:
    """A pair ``(K, N)`` with ``K < N`` witnessing ``r^N <= r^K`` (or ``=``)."""

    low: int
    high: int
    equal: bool

    def __str__(self) -> str:
        relation = "=" if self.equal else "<="
        return f"r^{self.high} {relation} r^{self.low}"


def default_horizon(rule: Rule) -> int:
    """Default power-search horizon for boundedness checks."""
    return 2 * len(rule.distinguished_variables()) + 2


def canonical_form(rule: Rule) -> Rule:
    """*rule* with variables and non-equality predicates renamed canonically.

    Variables become ``V0, V1, ...`` and predicates ``p0, p1, ...`` (arity
    kept) in order of first occurrence, head first; equality atoms and
    constants are left as they are.  Two rules that differ only by a
    bijective renaming of variables and non-equality predicate names have
    the same canonical form.
    """
    variables: dict[Variable, Variable] = {}
    predicates: dict[Predicate, Predicate] = {}

    def rename_term(term: Term) -> Term:
        if not isinstance(term, Variable):
            return term
        renamed = variables.get(term)
        if renamed is None:
            renamed = variables[term] = Variable(f"V{len(variables)}")
        return renamed

    def rename_atom(atom: Atom) -> Atom:
        predicate = atom.predicate
        if predicate.name != EQUALITY_PREDICATE:
            renamed = predicates.get(predicate)
            if renamed is None:
                renamed = predicates[predicate] = Predicate(
                    f"p{len(predicates)}", predicate.arity)
            predicate = renamed
        return Atom(predicate, tuple(rename_term(term) for term in atom.arguments))

    head = rename_atom(rule.head)
    return Rule(head, tuple(rename_atom(atom) for atom in rule.body))


def boundedness_witness(rule: Rule, max_power: Optional[int] = None,
                        require_equality: bool = False) -> Optional[BoundednessWitness]:
    """Search for ``K < N <= max_power`` with ``r^N <= r^K`` (or ``r^N = r^K``).

    Returns the first witness found (smallest ``N``, then smallest ``K``),
    or None if no witness exists within the horizon.  Results are memoised
    by :func:`canonical_form` (see the module docstring);
    ``boundedness_witness.cache_info()`` and ``.cache_clear()`` expose the
    memo.
    """
    horizon = max_power if max_power is not None else default_horizon(rule)
    return _canonical_witness(canonical_form(rule), horizon, require_equality)


@lru_cache(maxsize=WITNESS_MEMO_SIZE)
def _canonical_witness(rule: Rule, horizon: int,
                       require_equality: bool) -> Optional[BoundednessWitness]:
    """The power search behind :func:`boundedness_witness`, memoised.

    Powers are minimised before comparison to keep the homomorphism
    searches small.
    """
    minimized_powers: list[Rule] = []
    for exponent in range(1, horizon + 1):
        current = minimize_rule(power(rule, exponent))
        for low_index, low_rule in enumerate(minimized_powers, start=1):
            if require_equality:
                if is_equivalent(current, low_rule):
                    return BoundednessWitness(low_index, exponent, equal=True)
            else:
                if is_contained_in(current, low_rule):
                    equal = is_contained_in(low_rule, current)
                    return BoundednessWitness(low_index, exponent, equal=equal)
        minimized_powers.append(current)
    return None


boundedness_witness.cache_info = _canonical_witness.cache_info  # type: ignore[attr-defined]
boundedness_witness.cache_clear = _canonical_witness.cache_clear  # type: ignore[attr-defined]


def is_uniformly_bounded(rule: Rule, max_power: Optional[int] = None) -> bool:
    """True if a uniform-boundedness witness is found within the horizon."""
    return boundedness_witness(rule, max_power, require_equality=False) is not None


def is_torsion(rule: Rule, max_power: Optional[int] = None) -> bool:
    """True if a torsion witness (``r^N = r^K``) is found within the horizon."""
    return boundedness_witness(rule, max_power, require_equality=True) is not None


def torsion_period(rule: Rule, max_power: Optional[int] = None) -> Optional[tuple[int, int]]:
    """Return ``(K, N)`` with ``r^N = r^K`` and ``K < N``, or None.

    The pair is the one found first by :func:`boundedness_witness`, i.e.
    the smallest ``N``; the redundancy machinery of Theorem 4.2 uses these
    values as its ``K`` and ``N``.
    """
    witness = boundedness_witness(rule, max_power, require_equality=True)
    if witness is None:
        return None
    return witness.low, witness.high
