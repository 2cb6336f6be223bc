"""Minimisation (core computation) of a rule seen as a conjunctive query.

The paper assumes every rule "seen as a conjunctive query is in its unique
minimal form" (proof of Theorem 5.1).  The minimal form — the *core* — is
obtained by repeatedly removing body atoms that are redundant, i.e. atoms
whose removal leaves an equivalent query.  The core is unique up to
isomorphism (Chandra–Merlin).
"""

from __future__ import annotations

from repro.cq.containment import is_contained_in
from repro.datalog.rules import Rule


def minimize_rule(rule: Rule) -> Rule:
    """Return the core (unique minimal equivalent) of *rule*.

    An atom can be dropped when the rule without it is contained in the
    original rule (the reverse containment always holds because removing a
    conjunct can only enlarge the result).  Atoms are considered in body
    order; because cores are unique up to isomorphism the order only
    affects which isomorphic representative is returned.

    One left-to-right pass suffices.  Write ``B`` for the current body
    and read ``⊇`` on answers.  If atom *j* could not be removed from
    ``B`` (``B∖{j} ⊋ B``) and a later atom *i* was removed
    (``B∖{i} ≡ B``), then *j* still cannot be removed from ``B∖{i}``:
    ``B∖{i,j} ⊇ B∖{j} ⊋ B ≡ B∖{i}``.  So restarting from the first atom
    after every removal, as the textbook loop does, re-tests only atoms
    already known to stay and returns the same core, down to the same
    representative.
    """
    body = list(rule.body)
    index = 0
    while index < len(body):
        candidate_body = body[:index] + body[index + 1:]
        # Removing an atom always gives a superset; the candidate is
        # equivalent iff it is also contained in the current body.
        if is_contained_in(Rule(rule.head, tuple(candidate_body)),
                           Rule(rule.head, tuple(body))):
            body = candidate_body
        else:
            index += 1
    return Rule(rule.head, tuple(body))


def is_minimal(rule: Rule) -> bool:
    """True if no body atom of *rule* can be removed without changing it."""
    return len(minimize_rule(rule).body) == len(rule.body)
