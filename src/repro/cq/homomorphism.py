"""Homomorphisms between rules seen as conjunctive queries.

Following Section 5: given two nonrecursive rules ``r`` and ``s``, a
homomorphism ``f : r -> s`` maps the variables of ``r`` to terms of ``s``
such that (i) distinguished variables are fixed, and (ii) every body atom
of ``r`` is mapped onto a body atom of ``s``.

The search is a constraint-satisfaction backtracker over integer ids.
Each call interns the target's terms, then indexes its distinct body
atoms once: by predicate, by ``(predicate, position, term)``, and as a
set of ground tuples.  At every step the remaining source atom with the
fewest indexed candidates under the current bindings is matched next
(a fully bound atom has at most one candidate, an atom with a bound
term that no target atom carries at that position has none, so the
search fails as soon as any remaining atom becomes unmatchable).
Bindings live in one array with an undo trail; nothing is copied per
candidate.  Constants map to themselves.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.datalog.rules import Rule
from repro.datalog.terms import Term, Variable


def homomorphisms(source: Rule, target: Rule) -> Iterator[dict[Variable, Term]]:
    """Yield every homomorphism from *source* to *target*, each exactly once.

    A homomorphism maps each head term of *source* to the term at the same
    position in *target*'s head (for literally identical heads this is the
    identity on distinguished variables, the paper's requirement; allowing
    positional correspondence lets callers compare rules whose heads use
    different variable names but the same pattern) and every body atom of
    *source* onto some body atom of *target*.
    """
    if source.head.predicate != target.head.predicate:
        return

    term_ids: dict[Term, int] = {}
    terms: list[Term] = []

    def term_id(term: Term) -> int:
        found = term_ids.get(term)
        if found is None:
            found = term_ids[term] = len(terms)
            terms.append(term)
        return found

    # Target index, per predicate: (distinct atoms as id tuples, their
    # set, and one {term id: atoms} bucket map per argument position).
    index: dict = {}
    for atom in target.body:
        ids = tuple(term_id(term) for term in atom.arguments)
        entry = index.get(atom.predicate)
        if entry is None:
            entry = index[atom.predicate] = (
                [], set(), [{} for _ in range(atom.predicate.arity)])
        if ids in entry[1]:
            continue
        entry[0].append(ids)
        entry[1].add(ids)
        for position, value in enumerate(ids):
            entry[2][position].setdefault(value, []).append(ids)

    # Source variables become binding slots; a source argument is its
    # slot (>= 0) or, for a constant, ``-1 - term id``.
    slots: dict[Variable, int] = {}
    variables: list[Variable] = []
    binding: list[int] = []

    def encode(term: Term) -> Optional[int]:
        if isinstance(term, Variable):
            slot = slots.get(term)
            if slot is None:
                slot = slots[term] = len(variables)
                variables.append(term)
                binding.append(-1)
            return slot
        found = term_ids.get(term)
        return None if found is None else -1 - found

    for src_term, tgt_term in zip(source.head.arguments, target.head.arguments):
        if not isinstance(src_term, Variable):
            if src_term != tgt_term:
                return
            continue
        slot = encode(src_term)
        value = term_id(tgt_term)
        if binding[slot] < 0:
            binding[slot] = value
        elif binding[slot] != value:
            return

    compiled = []
    for atom in source.body:
        entry = index.get(atom.predicate)
        codes = tuple(encode(term) for term in atom.arguments)
        if entry is None or None in codes:
            return   # no target atom can be its image
        compiled.append((entry, codes))

    for _ in _search(list(range(len(compiled))), compiled, binding):
        yield {variable: terms[binding[slot]]
               for slot, variable in enumerate(variables)}


def _candidates(entry: tuple, codes: tuple[int, ...],
                binding: list[int]) -> list[tuple[int, ...]]:
    """Indexed images of one source atom under the current *binding*."""
    best = entry[0]
    values: Optional[list[int]] = []
    for position, code in enumerate(codes):
        value = binding[code] if code >= 0 else -1 - code
        if value < 0:
            values = None
            continue
        bucket = entry[2][position].get(value)
        if bucket is None:
            return []
        if len(bucket) < len(best):
            best = bucket
        if values is not None:
            values.append(value)
    if values is not None:   # fully bound: a membership test
        image = tuple(values)
        return [image] if image in entry[1] else []
    return best


def _search(remaining: list[int], compiled: list, binding: list[int]) -> Iterator[None]:
    """Yield once per way to extend *binding* over the *remaining* atoms.

    *binding* holds the complete assignment at each yield and is restored
    before this generator returns.  It is a module-level function, not a
    closure, because a recursive closure is a reference cycle and would
    leave every call's index to the cyclic garbage collector.
    """
    if not remaining:
        yield None
        return
    chosen = 0
    images: Optional[list[tuple[int, ...]]] = None
    for place, atom_index in enumerate(remaining):
        found = _candidates(*compiled[atom_index], binding)
        if images is None or len(found) < len(images):
            chosen, images = place, found
            if not found:
                return
    assert images is not None
    codes = compiled[remaining[chosen]][1]
    rest = remaining[:chosen] + remaining[chosen + 1:]
    trail: list[int] = []
    for image in images:
        consistent = True
        for code, value in zip(codes, image):
            if code < 0:
                if -1 - code != value:
                    consistent = False
                    break
                continue
            bound = binding[code]
            if bound < 0:
                binding[code] = value
                trail.append(code)
            elif bound != value:
                consistent = False
                break
        if consistent:
            yield from _search(rest, compiled, binding)
        for code in trail:
            binding[code] = -1
        trail.clear()


def find_homomorphism(source: Rule, target: Rule) -> Optional[dict[Variable, Term]]:
    """Return one homomorphism from *source* to *target*, or None."""
    for mapping in homomorphisms(source, target):
        return mapping
    return None


def is_homomorphism(mapping: dict[Variable, Term], source: Rule, target: Rule) -> bool:
    """Check that *mapping* is a homomorphism from *source* to *target*."""
    def image_of(term: Term) -> Term:
        if isinstance(term, Variable):
            return mapping.get(term, term)
        return term

    # Head correspondence.
    if source.head.predicate != target.head.predicate:
        return False
    for src_term, tgt_term in zip(source.head.arguments, target.head.arguments):
        if image_of(src_term) != tgt_term:
            return False
    # Every body atom must land on a body atom of the target.
    target_bodies = set(target.body)
    for atom in source.body:
        image = atom.with_arguments(image_of(term) for term in atom.arguments)
        if image not in target_bodies:
            return False
    return True


def count_homomorphisms(source: Rule, target: Rule, limit: int = 1_000_000) -> int:
    """Count homomorphisms from *source* to *target* (up to *limit*).

    Used by instrumentation and tests; the limit guards against the
    exponential worst case.
    """
    count = 0
    for _ in homomorphisms(source, target):
        count += 1
        if count >= limit:
            break
    return count
