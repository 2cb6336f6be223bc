"""Cost-based join-order enumeration over a rule body.

The search space is the paper's own join commutativity made operational:
scan atoms of a conjunctive body commute freely (any order emits the
same head multiset — the invariant every parity test in the suite
pins), so the planner enumerates permutations of the *scan* atoms with
a Selinger-style dynamic program over subsets and lets the cost model
(:mod:`repro.planner.cost`) pick the cheapest.  Equality atoms are not
enumerated: they are woven into the chosen scan sequence as soon as one
side is known, mirroring the greedy compiler's placement policy, so the
check/bind/unsafe resolution of :mod:`repro.engine.plan` is preserved.

Two constraints shape the space:

* **Delta-first** — when the rule scans the recursive predicate exactly
  once, that atom leads every candidate order.  This is the semi-naive
  discipline, and it is also what keeps low-level probe counters
  partition-independent: the parallel evaluators split the delta by
  row, and a plan that scanned EDB atoms before the delta would repeat
  the prefix work per part (see ``repro/engine/parallel.py``).
* **Redundancy-aware tie-breaks** — the paper's recursive-redundancy
  analysis (:func:`repro.core.redundancy.find_redundant_predicates`)
  marks nonrecursive predicates whose joins cannot produce anything new
  past a bounded power; among equal-cost orders the planner pushes
  redundant atoms as late as possible, so they act as residual filters
  rather than generators.  Dropping them outright would change the
  Theorem-3.1 emission multiset, which the planner never does.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.datalog.atoms import Atom
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Variable
from repro.exceptions import NotApplicableError, RuleStructureError
from repro.planner.cost import OrderEstimate, ProfileSource, step_matches

#: Rule bodies with at most this many scan atoms are planned with the
#: exact subset DP; larger bodies fall back to greedy-by-cost.
DP_LIMIT = 8


def _bound_after(body: Sequence[Atom], scan_indices: Sequence[int],
                 eq_indices: Sequence[int]) -> set[Variable]:
    """Variables bound once the given scans (and ready equalities) ran."""
    bound: set[Variable] = set()
    for index in scan_indices:
        bound.update(body[index].variables())
    changed = True
    while changed:
        changed = False
        for index in eq_indices:
            left, right = body[index].arguments
            left_known = isinstance(left, Constant) or left in bound
            right_known = isinstance(right, Constant) or right in bound
            if left_known and isinstance(right, Variable) and right not in bound:
                bound.add(right)
                changed = True
            if right_known and isinstance(left, Variable) and left not in bound:
                bound.add(left)
                changed = True
    return bound


def _weave_equalities(body: Sequence[Atom], scan_order: Sequence[int],
                      eq_indices: Sequence[int]) -> tuple[int, ...]:
    """Interleave equality atoms into a scan order, greedily.

    An equality is placed as soon as one side is known (matching the
    greedy compiler, where a ready equality outranks any scan);
    equalities that never acquire a known side trail the order and
    compile to the same ``unsafe`` step the greedy order produces.
    """
    placed: set[int] = set()
    bound: set[Variable] = set()
    order: list[int] = []

    def flush() -> None:
        changed = True
        while changed:
            changed = False
            for index in eq_indices:
                if index in placed:
                    continue
                left, right = body[index].arguments
                left_known = isinstance(left, Constant) or left in bound
                right_known = isinstance(right, Constant) or right in bound
                if left_known or right_known:
                    order.append(index)
                    placed.add(index)
                    for term in (left, right):
                        if isinstance(term, Variable):
                            bound.add(term)
                    changed = True

    flush()
    for index in scan_order:
        order.append(index)
        bound.update(body[index].variables())
        flush()
    for index in eq_indices:
        if index not in placed:
            order.append(index)
    return tuple(order)


def _redundancy_penalty(scan_order: Sequence[int],
                        redundant: frozenset[int]) -> int:
    """Tie-break weight: redundant atoms placed early cost more."""
    n = len(scan_order)
    return sum(n - position for position, index in enumerate(scan_order)
               if index in redundant)


def costed_scan_order(body: Sequence[Atom], scan_indices: Sequence[int],
                      eq_indices: Sequence[int], profiles: ProfileSource,
                      lead: Optional[int] = None,
                      measured: Optional[Mapping[int, float]] = None,
                      redundant: frozenset[int] = frozenset()
                      ) -> tuple[tuple[int, ...], OrderEstimate]:
    """The cheapest scan permutation under the cost model.

    Exact subset DP up to :data:`DP_LIMIT` scans, greedy-by-cost beyond.
    Candidates are compared by ``(cost, redundancy penalty, order)`` so
    the result is deterministic even across exact cost ties.  *measured*
    fanouts (adaptive frontier samples) are consulted for the scan
    placed immediately after *lead*.
    """

    def transition(cost: float, rows: float, chosen: tuple[int, ...],
                   index: int) -> tuple[float, float]:
        bound = _bound_after(body, chosen, eq_indices)
        if (measured is not None and index in measured
                and lead is not None and chosen and chosen[-1] == lead
                and len(chosen) == 1):
            matches = measured[index]
        else:
            matches = step_matches(body[index], bound, profiles)
        return cost + rows + rows * matches, rows * matches

    scans = list(scan_indices)
    if len(scans) <= 1:
        order = tuple(scans)
        cost, rows = 0.0, 1.0
        for i, index in enumerate(order):
            cost, rows = transition(cost, rows, order[:i], index)
        return order, OrderEstimate(cost, rows)

    if len(scans) <= DP_LIMIT:
        # Selinger-style DP: the cost of extending a prefix depends only
        # on the *set* of atoms already joined (their bound variables),
        # not the prefix's internal order — join commutativity again.
        best: dict[frozenset, tuple[float, int, tuple[int, ...], float]] = {
            frozenset(): (0.0, 0, (), 1.0)
        }
        for size in range(len(scans)):
            for subset, (cost, _, prefix, rows) in list(best.items()):
                if len(subset) != size:
                    continue
                for index in scans:
                    if index in subset:
                        continue
                    if lead is not None and not subset and index != lead:
                        continue
                    new_cost, new_rows = transition(cost, rows, prefix, index)
                    new_order = prefix + (index,)
                    key = subset | {index}
                    candidate = (new_cost,
                                 _redundancy_penalty(new_order, redundant),
                                 new_order, new_rows)
                    existing = best.get(key)
                    if existing is None or candidate[:3] < existing[:3]:
                        best[key] = candidate
        cost, _, order, rows = best[frozenset(scans)]
        return order, OrderEstimate(cost, rows)

    # Greedy-by-cost for wide bodies: repeatedly take the cheapest
    # extension (same comparison key as the DP).
    remaining = list(scans)
    order_list: list[int] = []
    cost, rows = 0.0, 1.0
    while remaining:
        candidates = []
        for index in remaining:
            if lead is not None and not order_list and index != lead:
                continue
            new_cost, new_rows = transition(cost, rows, tuple(order_list),
                                            index)
            candidates.append((new_cost, 1 if index in redundant else 0,
                               index, new_rows))
        if not candidates:   # lead constrained but lead not in remaining
            candidates = [(cost, 0, remaining[0], rows)]
        new_cost, _, index, new_rows = min(candidates)
        order_list.append(index)
        remaining.remove(index)
        cost, rows = new_cost, new_rows
    return tuple(order_list), OrderEstimate(cost, rows)


def redundant_scan_indices(rule: Rule,
                           scan_indices: Sequence[int]) -> tuple[frozenset[int], tuple[str, ...]]:
    """Body indices of recursively redundant nonrecursive atoms.

    Wraps :func:`repro.core.redundancy.find_redundant_predicates`; rules
    outside the class the analysis handles (it raises
    :class:`~repro.exceptions.NotApplicableError` or, for rules that are
    not linear recursive or repeat a consequent variable,
    :class:`~repro.exceptions.RuleStructureError`)
    simply report no findings — the planner treats redundancy strictly
    as an extra hint.  Any other error is a bug and propagates.
    """
    # Imported here: repro.core imports the drivers, which import this module.
    from repro.core.redundancy import find_redundant_predicates
    try:
        findings = find_redundant_predicates(rule)
    except (NotApplicableError, RuleStructureError):
        return frozenset(), ()
    if not findings:
        return frozenset(), ()
    names = {finding.predicate_name for finding in findings}
    indices = frozenset(
        index for index in scan_indices
        if rule.body[index].predicate.name in names
    )
    notes = tuple(str(finding) for finding in findings)
    return indices, notes


def costed_body_order(rule: Rule, profiles: ProfileSource,
                      lead_name: Optional[str] = None,
                      measured: Optional[Mapping[int, float]] = None
                      ) -> tuple[tuple[int, ...], OrderEstimate, tuple[str, ...]]:
    """The full cost-based body order for one rule.

    Returns ``(order, estimate, redundancy notes)`` where *order* is a
    permutation of all body-atom indices ready for
    :func:`repro.engine.plan.compile_rule`.  When *lead_name* names a
    predicate the body scans exactly once (the recursive predicate in
    the drivers), that scan is constrained to lead.
    """
    body = rule.body
    scan_indices = [i for i, atom in enumerate(body) if not atom.is_equality()]
    eq_indices = [i for i, atom in enumerate(body) if atom.is_equality()]
    lead: Optional[int] = None
    if lead_name is not None:
        matches = [i for i in scan_indices
                   if body[i].predicate.name == lead_name]
        if len(matches) == 1:
            lead = matches[0]
    redundant, notes = redundant_scan_indices(rule, scan_indices)
    scan_order, estimate = costed_scan_order(
        body, scan_indices, eq_indices, profiles, lead=lead,
        measured=measured, redundant=redundant,
    )
    return _weave_equalities(body, scan_order, eq_indices), estimate, notes
