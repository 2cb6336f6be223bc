"""Random rule-pair generators for the restricted class of Theorem 5.2.

The E-POLY benchmark compares the ``O(a log a)`` syntactic commutativity
test with the definition-based test as rule size grows, and the detection
experiments need large populations of both commuting and non-commuting
pairs.  The generators here produce linear, function-free, constant-free,
range-restricted rules with no repeated consequent variables and no
repeated nonrecursive predicates, i.e. members of the restricted class.

Construction of a *commuting* pair follows Theorem 5.1 directly: every
consequent position is assigned a clause — (a) free 1-persistent in one
rule and arbitrary-but-safe in the other, (b) link 1-persistent in both,
or (d) carried by bridges built identically in the two rules (hence
equivalent).  Construction of a generic pair places nonrecursive
predicates at random, which with high probability breaks the condition.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.datalog.atoms import Atom, Predicate
from repro.datalog.rules import Rule
from repro.datalog.terms import Variable
from repro.storage.database import Database
from repro.storage.relation import Relation


def _head(arity: int, predicate: str = "p") -> Atom:
    return Atom(
        Predicate(predicate, arity),
        tuple(Variable(f"X{i}") for i in range(arity)),
    )


def random_restricted_rule(arity: int, nonrecursive_predicates: int,
                           rng: Optional[random.Random] = None,
                           predicate: str = "p",
                           predicate_prefix: str = "q") -> Rule:
    """One random linear rule of the restricted class.

    Each consequent position is independently made 1-persistent (the body
    literal repeats the head variable) or general (the body literal uses a
    fresh nondistinguished variable).  Each nonrecursive predicate is
    binary and connects two randomly chosen variables of the rule; every
    head variable that is not 1-persistent is forced to appear in some
    nonrecursive atom so the rule stays range-restricted.
    """
    rng = rng if rng is not None else random.Random(0)
    head = _head(arity, predicate)
    head_vars = list(head.arguments)

    body_args: list[Variable] = []
    fresh_count = 0
    general_positions: list[int] = []
    for position in range(arity):
        if rng.random() < 0.5:
            body_args.append(head_vars[position])
        else:
            fresh_count += 1
            body_args.append(Variable(f"N{fresh_count}"))
            general_positions.append(position)
    recursive = Atom(Predicate(predicate, arity), tuple(body_args))

    pool: list[Variable] = list(dict.fromkeys(list(head_vars) + body_args))
    atoms: list[Atom] = []
    for index in range(nonrecursive_predicates):
        name = f"{predicate_prefix}{index}"
        first = rng.choice(pool)
        second = rng.choice(pool)
        atoms.append(Atom.of(name, first, second))

    # Ensure range restriction: every general head variable must occur in
    # the body; attach a dedicated predicate when it does not.
    covered = {var for atom in atoms for var in atom.variables()} | set(body_args)
    extra = 0
    for position in general_positions:
        variable = head_vars[position]
        if variable not in covered:
            atoms.append(Atom.of(f"{predicate_prefix}rr{extra}", variable, variable))
            covered.add(variable)
            extra += 1
    return Rule(head, (recursive, *atoms))


def random_rule_pair(arity: int, nonrecursive_predicates: int,
                     rng: Optional[random.Random] = None) -> tuple[Rule, Rule]:
    """Two independently random restricted rules over the same consequent.

    The second rule uses a disjoint set of nonrecursive predicate names, so
    the pair is function-free, constant-free, and shares only the
    recursive predicate.  Such pairs usually do *not* commute.
    """
    rng = rng if rng is not None else random.Random(0)
    first = random_restricted_rule(arity, nonrecursive_predicates, rng, predicate_prefix="q")
    second = random_restricted_rule(arity, nonrecursive_predicates, rng, predicate_prefix="r")
    return first, second


def random_commuting_pair(arity: int, rng: Optional[random.Random] = None
                          ) -> tuple[Rule, Rule]:
    """Two restricted rules built to satisfy the condition of Theorem 5.1.

    Each consequent position is assigned one of:

    * clause (a): the position is free 1-persistent in exactly one of the
      two rules; in the other it is general, carried by a nonrecursive
      predicate private to that rule;
    * clause (b): the position is link 1-persistent in both rules, sharing
      one nonrecursive predicate name (the shared bridge is identical,
      hence equivalent).
    """
    rng = rng if rng is not None else random.Random(0)
    head = _head(arity)
    head_vars = list(head.arguments)

    first_body = list(head_vars)
    second_body = list(head_vars)
    first_atoms: list[Atom] = []
    second_atoms: list[Atom] = []
    fresh = 0

    for position in range(arity):
        variable = head_vars[position]
        choice = rng.choice(["a-first", "a-second", "b"])
        if choice == "b":
            # Link 1-persistent in both rules: identical unary predicate.
            atom = Atom.of(f"s{position}", variable)
            first_atoms.append(atom)
            second_atoms.append(atom)
        elif choice == "a-first":
            # Free 1-persistent in the first rule, general in the second.
            fresh += 1
            second_body[position] = Variable(f"N{fresh}")
            second_atoms.append(Atom.of(f"r{position}", second_body[position], variable))
        else:
            # Free 1-persistent in the second rule, general in the first.
            fresh += 1
            first_body[position] = Variable(f"M{fresh}")
            first_atoms.append(Atom.of(f"q{position}", first_body[position], variable))

    predicate = Predicate("p", arity)
    first = Rule(head, (Atom(predicate, tuple(first_body)), *first_atoms))
    second = Rule(head, (Atom(predicate, tuple(second_body)), *second_atoms))
    return first, second


# ----------------------------------------------------------------------
# Skewed join-order families (the e2e ``plan_bound`` workload)
# ----------------------------------------------------------------------


def skewed_filter_program(chain: int = 40, blow_fanout: int = 20,
                          sel_padding: int = 1000
                          ) -> tuple[tuple[Rule, ...], Database, Relation]:
    """A workload where the greedy size heuristic probes more than it must.

    The rule is ``p(X,Y) :- p(X,Z), blow(Z,Y), sel(Z,Y)`` over a
    *chain*-long path: for every chain node ``z``, ``blow`` holds the
    true successor plus ``blow_fanout - 1`` garbage targets, while
    ``sel`` holds only the true successor — plus ``sel_padding`` rows
    under keys the evaluation never probes.  The padding makes ``sel``
    the *larger* relation, so greedy's size tie-break scans ``blow``
    first (``blow_fanout`` probed rows per delta row, against one for
    the ``sel``-first order).  Every order emits the identical head
    multiset — only ``rows_probed`` differs — and at these sizes the
    extra probes cost no measurable time, which is why greedy is the
    only planner.

    Returns ``(rules, database, initial)`` ready for the fixpoint
    drivers; the initial relation seeds the chain at node 0.
    """
    blow_rows: list[tuple[int, int]] = []
    sel_rows: list[tuple[int, int]] = []
    garbage = 10_000
    for z in range(chain):
        blow_rows.append((z, z + 1))
        for j in range(blow_fanout - 1):
            garbage += 1
            blow_rows.append((z, garbage))
        sel_rows.append((z, z + 1))
    for i in range(sel_padding):
        sel_rows.append((100_000 + i, 200_000 + i))
    X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
    p = Predicate("p", 2)
    rule = Rule(
        Atom(p, (X, Y)),
        (Atom(p, (X, Z)), Atom.of("blow", Z, Y), Atom.of("sel", Z, Y)),
    )
    database = Database({
        "blow": Relation.of("blow", 2, blow_rows),
        "sel": Relation.of("sel", 2, sel_rows),
    })
    initial = Relation.of("p", 2, [(0, 0)])
    return (rule,), database, initial


def hub_drift_program(chain: int = 40, hot_start: int = 6,
                      hot_fanout: int = 60, alt_fanout: int = 4,
                      padding: int = 3000
                      ) -> tuple[tuple[Rule, ...], Database, Relation]:
    """A workload whose join fanout drifts during the fixpoint.

    The rule is ``p(X,Y) :- p(X,Z), hub(X,Z,Y), alt(Z,Y)`` over a
    *chain*-long path.  ``hub`` shares two bound variables with the
    delta, so greedy scans it first; its padding rows (*padding* triples
    under never-probed keys with near-distinct columns) make it look
    selective to any cold estimate.  But past node *hot_start* every
    live probe of ``hub`` returns ``hot_fanout`` rows, while ``alt``
    stays at ``alt_fanout`` everywhere, so the ``alt``-first order
    probes fewer rows late in the fixpoint.  Results and Theorem-3.1
    counts are the same under every order.

    Returns ``(rules, database, initial)``; the initial relation seeds
    the chain at node 0 with source value 0.
    """
    hub_rows: list[tuple[int, int, int]] = []
    alt_rows: list[tuple[int, int]] = []
    garbage = 10_000
    for z in range(chain):
        fanout = hot_fanout if z >= hot_start else 1
        hub_rows.append((0, z, z + 1))
        for j in range(fanout - 1):
            garbage += 1
            hub_rows.append((0, z, garbage))
        alt_rows.append((z, z + 1))
        for j in range(alt_fanout - 1):
            garbage += 1
            alt_rows.append((z, garbage))
    for i in range(padding):
        hub_rows.append((300_000 + i, 400_000 + i, 500_000 + i))
    X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
    p = Predicate("p", 2)
    rule = Rule(
        Atom(p, (X, Y)),
        (Atom(p, (X, Z)), Atom.of("hub", X, Z, Y), Atom.of("alt", Z, Y)),
    )
    database = Database({
        "hub": Relation.of("hub", 3, hub_rows),
        "alt": Relation.of("alt", 2, alt_rows),
    })
    initial = Relation.of("p", 2, [(0, 0)])
    return (rule,), database, initial
