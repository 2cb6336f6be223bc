"""Magic-sets demand rewriting for linear recursions.

A query ``path(a, X)?`` does not need the whole closure — only the
fraction *demanded* by the bound constant ``a``.  This module performs
the classical magic-sets transformation (the sideways-information-
passing line of Bancilhon/Maier/Sagiv/Ullman, which runs through
Naughton's bibliography) specialised to the single-predicate linear
recursions this engine evaluates, and — crucially — produces programs of
exactly that same shape, so the rewritten rules run through the
**unchanged** compiled/vectorised/interned fixpoint drivers
(:func:`repro.engine.seminaive.seminaive_closure` and friends) in every
mode.

Shape of the rewrite
--------------------

For a linear recursion ``P = A P ∪ Q`` and a query binding the head
positions ``B`` (after shrinking ``B`` to a *stable* bound set, see
:func:`stable_bound_positions`):

* a **magic predicate** ``m`` of arity ``|B|`` collects the demanded
  bindings.  Its rules are derived one-per-recursive-rule: demand on a
  rule's head propagates *sideways* through the rule's nonrecursive
  atoms to demand on its recursive body atom::

      p(X, Y) :- e(X, Z), p(Z, Y).      # original, query p(a, Y)?
      m(Z)    :- m(X), e(X, Z).         # magic rule (B = {0})

  The magic rules are themselves a single-predicate *linear* recursion
  over ``m`` (each body holds exactly one ``m`` atom), seeded with the
  query's bound values — so stage one is an ordinary
  ``seminaive_closure`` run.

* the **guarded program** adds ``m(head args at B)`` to every original
  rule body, restricting derivations to demanded tuples::

      p(X, Y) :- m(X), e(X, Z), p(Z, Y).
      p(X, Y) :- m(X), e(X, Y).         # guarded exit rule

  Stage two evaluates the guarded recursion with ``m`` stored as an
  ordinary EDB relation — again an unchanged driver run, still linear
  in ``p``.

Connected sideways information passing
---------------------------------------
A magic rule keeps only the nonrecursive atoms that can pass bindings
sideways.  Link a rule's nonrecursive atoms (equalities included)
whenever they share a variable; a connected component is kept exactly
when it holds a variable of the magic rule's own head (it binds a
demanded argument of the recursive atom) or of its magic body atom (it
is a semi-join filter on the incoming demand).  Every other component
is dropped — joined in, it could only multiply each demand tuple by its
own size, as a cross product.  :func:`_sideways` computes the kept
atoms and the bindable variables together, so stabilisation and rule
construction cannot disagree.

This is the paper's Example 5.2 read as a demand rule.  In::

    sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).

the rule is the composite of two operators acting on disjoint argument
positions, which therefore commute (Theorem 5.2); by separability
(Section 4, Algorithm 4.1) a selection on ``X`` is carried by the
``up`` operator alone.  The component rule finds the same split
syntactically: ``down(V, Y)`` shares no variable with ``X`` or ``U``,
so ``sg(a, Y)?`` demands ``m(U) :- m(X), up(X, U)`` — |demand| × the
out-degree of ``up`` derivations, where joining ``down`` in costs
|demand| × |``down``|.

Soundness: a magic rule's body is a *subset* of the source rule's
nonrecursive atoms, so every binding of the source rule's body still
satisfies it and the computed magic set is a superset of the true
demand; the guarded program then derives exactly the original
``p``-facts whose ``B``-projection is in the magic set.  Answers
filtered by the query are therefore identical — bit for bit — to
filtering the full closure, which the parity tests and the differential
fuzzer assert across all modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

from repro.datalog.atoms import Atom, Predicate
from repro.datalog.programs import LinearRecursion
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Term, Variable
from repro.engine.parallel import EvalConfig
from repro.engine.seminaive import evaluate_exit_rules, seminaive_closure
from repro.engine.statistics import EvaluationStatistics
from repro.exceptions import NotApplicableError, RuleStructureError
from repro.storage.database import Database
from repro.storage.relation import Relation


def _bound_arguments(atom: Atom, bound_positions: Iterable[int]) -> tuple[Term, ...]:
    """The arguments of *atom* at *bound_positions* (the magic atom's)."""
    return tuple(atom.arguments[position] for position in bound_positions)


def _sideways(rule: Rule, bound_positions: Sequence[int]
              ) -> tuple[tuple[Atom, ...], set[Variable]]:
    """The atoms of *rule* that pass bindings sideways, and what they bind.

    Returns ``(kept, bindable)``.  *kept* is the body of the magic rule
    minus its magic atom: the nonrecursive atoms in variable-connected
    components that reach a bound argument of the head or of the
    recursive atom, in rule order.  *bindable* is every variable demand
    propagation can bind: head variables at bound positions, every
    variable of a kept non-equality atom (EDB scans are finite and
    self-binding), and — propagated to a fixpoint — variables equated
    to a bindable variable or to a constant through a kept equality
    atom.  Once the bound positions are stable every reached variable is
    bindable, so every kept equality atom is fully bound.
    """
    bindable = {
        term for term in _bound_arguments(rule.head, bound_positions)
        if isinstance(term, Variable)
    }
    reached = bindable | {
        term for term in _bound_arguments(rule.recursive_atoms()[0],
                                          bound_positions)
        if isinstance(term, Variable)
    }
    atoms = rule.nonrecursive_atoms()
    connected: set[int] = set()
    changed = True
    while changed:
        changed = False
        for index, atom in enumerate(atoms):
            if index not in connected and not reached.isdisjoint(atom.variables()):
                reached.update(atom.variables())
                connected.add(index)
                changed = True

    equalities: list[Atom] = []
    for index in connected:
        if atoms[index].is_equality():
            equalities.append(atoms[index])
        else:
            bindable.update(atoms[index].variables())
    changed = True
    while changed:
        changed = False
        for atom in equalities:
            left, right = atom.arguments
            left_known = isinstance(left, Constant) or left in bindable
            right_known = isinstance(right, Constant) or right in bindable
            if left_known and isinstance(right, Variable) and right not in bindable:
                bindable.add(right)
                changed = True
            if right_known and isinstance(left, Variable) and left not in bindable:
                bindable.add(left)
                changed = True
    kept = tuple(atoms[index] for index in sorted(connected))
    return kept, bindable


def stable_bound_positions(recursion: LinearRecursion,
                           bound: Iterable[int]) -> tuple[int, ...]:
    """Shrink the query's bound positions to a recursion-stable subset.

    A bound set ``B`` is *stable* when, for every recursive rule, each
    position of the recursive body atom in ``B`` holds a constant or a
    variable bindable by sideways propagation (:func:`_sideways`).  Stability guarantees every magic
    rule is range-restricted and that one adorned version of the
    predicate suffices — keeping the rewritten program in the
    single-predicate linear shape the drivers evaluate.

    Positions that cannot be kept bound are dropped (their constants are
    enforced by the final answer filter instead); an empty result means
    the demand rewrite cannot restrict anything and the caller should
    fall back to full closure.
    """
    positions = set(bound)
    changed = True
    while changed and positions:
        changed = False
        for rule in recursion.recursive_rules:
            recursive_atom = rule.recursive_atoms()[0]
            _, bindable = _sideways(rule, sorted(positions))
            for position in sorted(positions):
                term = recursive_atom.arguments[position]
                if isinstance(term, Variable) and term not in bindable:
                    positions.discard(position)
                    changed = True
    return tuple(sorted(positions))


def _magic_name(predicate: Predicate, bound_positions: Sequence[int],
                taken: Iterable[str]) -> str:
    """A collision-free name for the magic predicate of one adornment."""
    adornment = "".join(
        "b" if position in bound_positions else "f"
        for position in range(predicate.arity)
    )
    name = f"magic_{predicate.name}_{adornment}"
    taken = set(taken)
    while name in taken:
        name = "_" + name
    return name


@dataclass(frozen=True)
class MagicProgram:
    """The demand rewrite of one linear recursion for one bound set.

    The two stages are plain driver inputs: ``magic_rules`` is a linear
    recursion over :attr:`magic_predicate` (seeded by
    :meth:`magic_seed`), and the guarded rules are a linear recursion
    over the original predicate with the magic relation as an extra EDB
    input.  :meth:`solve` runs both stages through the standard drivers
    under any :class:`~repro.engine.parallel.EvalConfig`.
    """

    predicate: Predicate
    #: The stable bound head positions, ascending.
    bound_positions: tuple[int, ...]
    magic_predicate: Predicate
    #: Demand-propagation rules: a linear recursion over the magic predicate.
    magic_rules: tuple[Rule, ...]
    #: Original recursive rules, guarded by the magic atom.
    guarded_recursive: tuple[Rule, ...]
    #: Original exit rules, guarded by the magic atom.
    guarded_exit: tuple[Rule, ...]

    def adornment(self) -> str:
        """The rewritten adornment (after stabilisation)."""
        return "".join(
            "b" if position in self.bound_positions else "f"
            for position in range(self.predicate.arity)
        )

    def magic_seed(self, bound_values: Sequence[Any]) -> Relation:
        """The seed relation: one row holding the demanded binding.

        *bound_values* are the query's constants at
        :attr:`bound_positions`, in position order (the caller projects
        them; :meth:`seed_from_query` does it from a full argument row).
        """
        if len(bound_values) != len(self.bound_positions):
            raise ValueError(
                f"Expected {len(self.bound_positions)} bound values, "
                f"got {len(bound_values)}"
            )
        return Relation.of(
            self.magic_predicate.name, self.magic_predicate.arity,
            [tuple(bound_values)],
        )

    def demanded(self, magic: Relation, relation: Relation) -> Relation:
        """Restrict *relation* to rows whose ``B``-projection is in *magic*."""
        positions = self.bound_positions
        rows = magic.rows
        return Relation.from_canonical(
            relation.name, relation.arity,
            frozenset(
                row for row in relation.rows
                if tuple(row[position] for position in positions) in rows
            ),
        )

    # ------------------------------------------------------------------
    # Evaluation (both stages through the unchanged drivers)
    # ------------------------------------------------------------------

    def magic_closure(self, bound_values: Sequence[Any], database: Database,
                      statistics: Optional[EvaluationStatistics] = None,
                      config: Optional[EvalConfig] = None) -> Relation:
        """Stage one: the demand fixpoint (an ordinary semi-naive run)."""
        return seminaive_closure(
            self.magic_rules, self.magic_seed(bound_values), database,
            statistics, config=config,
        )

    def solve(self, bound_values: Sequence[Any], database: Database,
              statistics: Optional[EvaluationStatistics] = None,
              initial: Optional[Relation] = None,
              config: Optional[EvalConfig] = None) -> Relation:
        """Evaluate the demanded fraction of the recursion.

        Stage one computes the magic (demand) closure from the query's
        *bound_values*; stage two evaluates the guarded recursion with
        the magic relation stored as an EDB input.  When *initial* is
        given it plays the role of the exit rules' result ``Q`` (the
        closure-style API) and is restricted to demanded rows;
        otherwise the guarded exit rules are evaluated.  Both stages
        run under *config* through the standard drivers.

        The result contains every ``p``-fact whose ``B``-projection is
        demanded — a superset of the query's answers; the caller applies
        the final :meth:`repro.query.query.Query.filter`.
        """
        statistics = statistics if statistics is not None else EvaluationStatistics()
        magic = self.magic_closure(bound_values, database, statistics, config)
        guarded_database = database.with_relation(magic)
        if initial is not None:
            start = self.demanded(magic, initial)
        else:
            recursion = LinearRecursion(
                self.predicate, self.guarded_recursive, self.guarded_exit,
            )
            start = evaluate_exit_rules(
                recursion, guarded_database, statistics, config=config,
            )
        return seminaive_closure(
            self.guarded_recursive, start, guarded_database, statistics,
            config=config,
        )


def magic_rewrite(recursion: LinearRecursion,
                  bound: Iterable[int],
                  reserved_names: Iterable[str] = ()) -> MagicProgram:
    """Build the :class:`MagicProgram` of *recursion* for bound positions.

    *bound* is the query's bound head positions; they are first shrunk
    to a stable subset (:func:`stable_bound_positions`).  Raises
    :class:`~repro.exceptions.NotApplicableError` when no position
    survives — the demand rewrite cannot restrict anything and full
    closure is the right plan.  *reserved_names* are relation names the
    magic predicate must avoid (the caller passes the database's names;
    program predicates are always avoided).
    """
    for rule in recursion.recursive_rules:
        if not rule.is_linear_recursive():
            raise RuleStructureError(
                f"Magic rewrite requires linear recursive rules: {rule}"
            )
    bound_positions = stable_bound_positions(recursion, bound)
    if not bound_positions:
        raise NotApplicableError(
            f"No stable bound positions for {recursion.predicate} "
            f"(query bound {sorted(set(bound))}); use full closure"
        )

    taken = set(reserved_names)
    for rule in (*recursion.recursive_rules, *recursion.exit_rules):
        taken.add(rule.head.predicate.name)
        for atom in rule.body:
            taken.add(atom.predicate.name)
    magic_predicate = Predicate(
        _magic_name(recursion.predicate, bound_positions, taken),
        len(bound_positions),
    )

    def magic_atom(source: Atom) -> Atom:
        return Atom(magic_predicate, _bound_arguments(source, bound_positions))

    magic_rules = tuple(
        Rule(magic_atom(rule.recursive_atoms()[0]),
             (magic_atom(rule.head), *_sideways(rule, bound_positions)[0]))
        for rule in recursion.recursive_rules
    )

    guarded_recursive = tuple(
        Rule(rule.head, (magic_atom(rule.head), *rule.body))
        for rule in recursion.recursive_rules
    )
    guarded_exit = tuple(
        Rule(rule.head, (magic_atom(rule.head), *rule.body))
        for rule in recursion.exit_rules
    )
    return MagicProgram(
        recursion.predicate, bound_positions, magic_predicate,
        magic_rules, guarded_recursive, guarded_exit,
    )
