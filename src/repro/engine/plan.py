"""Compiled rule plans: plan a rule body once, execute it many times.

The interpreted evaluator in :mod:`repro.engine.conjunctive` re-derives
the greedy join order, recomputes which argument positions are bound, and
copies a ``dict`` of bindings for every probed row — on every call, i.e.
on every fixpoint iteration.  A :class:`CompiledRule` does all of that
work exactly once per rule:

* the greedy atom order (bound-sharing first, then smaller relations) is
  fixed at compile time, so the set of variables bound before each join
  step — and therefore each atom's bound-position layout — is *static*;
* variables are numbered into *slots*; the binding environment is a flat
  list indexed by slot, extended in place and undone via the step's
  statically known bind slots (a trail), so no per-row dict copies occur;
* per step the executor precomputes the index key template (constants and
  already-bound slots) and the post-probe actions (bind a slot, or check
  a repeated within-atom occurrence), so the inner loop only does list
  indexing and comparisons.

Indexes over stored (EDB) relations come from the per-
:class:`~repro.storage.database.Database` cache
(:meth:`~repro.storage.database.Database.index`), so they persist across
fixpoint iterations; only the override relations (the semi-naive deltas)
are indexed per execution.

Cache invalidation rules: the plan cache is keyed by the (immutable)
:class:`~repro.datalog.rules.Rule` value and contains *only structural*
information — atom order, slot numbering, position layouts — never data, so a cached
plan is valid against any database.  Relation sizes influence only the
greedy order chosen at first compile (a performance heuristic, not a
correctness input).  The emitted multiset of head tuples is
order-independent, so derivation and duplicate counts (Theorem 3.1's
|E| accounting) are identical to the interpreted path.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

from repro.datalog.atoms import Atom
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Variable
from repro.engine.statistics import JoinCounters
from repro.exceptions import EvaluationError
from repro.storage.database import Database
from repro.storage.index import HashIndex
from repro.storage.relation import Relation, Row

#: Sentinel marking an unbound slot in the flat binding environment.  A
#: distinct object (never ``None``) so that ``None`` is a legal bound
#: value — see the ``_match_row`` regression in the interpreted path.
UNBOUND = object()

_PLAN_CACHE: dict[Any, "CompiledRule"] = {}
_PLAN_CACHE_LIMIT = 4096


class _ScanStep:
    """One index-nested-loop join step over a stored or override relation."""

    __slots__ = ("atom", "name", "arity", "key_positions", "key_template",
                 "post_actions", "bind_slots", "static_key")

    def __init__(self, atom: Atom, key_positions: tuple[int, ...],
                 key_template: tuple[tuple[bool, Any], ...],
                 post_actions: tuple[tuple[bool, int, int], ...]):
        self.atom = atom
        self.name = atom.predicate.name
        self.arity = atom.predicate.arity
        #: Positions whose value is known before the probe (constants and
        #: slots bound by earlier steps); they form the index key.
        self.key_positions = key_positions
        #: Per key position: (is_constant, value-or-slot).
        self.key_template = key_template
        #: Per remaining position, in order: (is_bind, position, slot).
        #: ``is_bind`` is static — the first occurrence of a fresh
        #: variable binds its slot, later occurrences check it.
        self.post_actions = post_actions
        self.bind_slots = tuple(slot for is_bind, _, slot in post_actions if is_bind)
        #: The probe key interned at compile time when every key entry is
        #: a constant (including the empty key of an unconstrained
        #: scan): such steps probe with one prebuilt tuple per execution
        #: instead of rebuilding it per binding — the rows executor's
        #: last per-probe allocation that could be hoisted.
        self.static_key: Optional[tuple] = None
        if all(is_const for is_const, _ in key_template):
            self.static_key = tuple(value for _, value in key_template)


class _EqualityStep:
    """An equality atom, resolved at compile time into one of three modes.

    ``check``: both sides known — compare.  ``bind``: one side known —
    bind the other side's slot.  ``unsafe``: neither side is ever bound
    when the step runs; raises only if the join actually reaches it,
    matching the interpreted evaluator.
    """

    __slots__ = ("atom", "mode", "left", "right", "slot", "value_is_const", "value")

    def __init__(self, atom: Atom, mode: str,
                 left: Optional[tuple[bool, Any]] = None,
                 right: Optional[tuple[bool, Any]] = None,
                 slot: Optional[int] = None,
                 value: Optional[tuple[bool, Any]] = None):
        self.atom = atom
        self.mode = mode
        self.left = left
        self.right = right
        self.slot = slot
        if value is not None:
            self.value_is_const, self.value = value
        else:
            self.value_is_const, self.value = True, None


class CompiledRule:
    """A rule compiled to a fixed join order and slot-based executor."""

    __slots__ = ("rule", "num_slots", "steps", "head_template", "fact_row",
                 "order", "batch", "interned")

    def __init__(self, rule: Rule, num_slots: int, steps: tuple,
                 head_template: tuple[tuple[bool, Any], ...],
                 fact_row: Optional[Row],
                 order: tuple[int, ...] = ()):
        self.rule = rule
        self.num_slots = num_slots
        self.steps = steps
        self.head_template = head_template
        self.fact_row = fact_row
        #: Body-atom indices in execution order (empty for facts).
        self.order = order
        #: Lazily populated column-oriented lowering of the same step
        #: sequence (:func:`repro.engine.vectorized.batch_plan`).  Purely
        #: structural, like the plan itself, so it shares the plan
        #: cache's lifetime and invalidation rules.
        self.batch: Optional[Any] = None
        #: Lazily populated int-specialised lowering of the batch plan
        #: (:func:`repro.engine.vectorized.interned_plan`): payload
        #: layouts and head packing structure.  Also purely structural —
        #: interned *ids* are per-database and resolved at execution
        #: time, never cached here.
        self.interned: Optional[Any] = None

    # ------------------------------------------------------------------

    def execute(self, database: Database,
                overrides: Optional[Mapping[str, Relation]] = None,
                counters: Optional[JoinCounters] = None) -> list[Row]:
        """Run the plan; returns every emitted head tuple, with repeats.

        Semantically identical to
        :func:`repro.engine.conjunctive.evaluate_rule_multiset_interpreted`:
        one entry per successful derivation (one arc of Theorem 3.1's
        derivation graph).
        """
        counters = counters if counters is not None else JoinCounters()
        if self.fact_row is not None:
            counters.tuples_emitted += 1
            return [self.fact_row]

        steps = self.steps
        nsteps = len(steps)
        env: list[Any] = [UNBOUND] * self.num_slots
        emissions: list[Row] = []
        head_template = self.head_template

        # Every scan step's relation is resolved — and its arity validated
        # — eagerly, matching the interpreter (a schema mismatch raises
        # even when an earlier empty atom would short-circuit the join).
        # Indexes are built lazily on the first visit of each step, so an
        # override (delta) relation is only indexed if the join actually
        # reaches its step.  Within one execution, steps sharing a
        # (name, key layout) share the index.
        override_relations: list[Optional[Relation]] = [None] * nsteps
        for position, step in enumerate(steps):
            if type(step) is not _ScanStep:
                continue
            if overrides and step.name in overrides:
                relation = overrides[step.name]
                if relation.arity != step.arity:
                    raise EvaluationError(
                        f"Override for {step.name} has arity {relation.arity}, "
                        f"atom expects {step.arity}"
                    )
                override_relations[position] = relation
            else:
                database.relation(step.name, step.arity)
        indexes: list[Optional[HashIndex]] = [None] * nsteps
        override_indexes: dict[tuple[str, tuple[int, ...]], HashIndex] = {}

        def index_for(i: int, step: _ScanStep) -> HashIndex:
            relation = override_relations[i]
            if relation is None:
                index = database.index(step.name, step.arity, step.key_positions)
            else:
                cache_key = (step.name, step.key_positions)
                index = override_indexes.get(cache_key)
                if index is None:
                    index = HashIndex(relation, step.key_positions)
                    override_indexes[cache_key] = index
            indexes[i] = index
            return index

        def join(i: int) -> None:
            if i == nsteps:
                counters.tuples_emitted += 1
                emissions.append(tuple(
                    value if is_const else env[value]
                    for is_const, value in head_template
                ))
                return
            step = steps[i]
            if type(step) is _EqualityStep:
                mode = step.mode
                if mode == "bind":
                    env[step.slot] = (step.value if step.value_is_const
                                      else env[step.value])
                    counters.bindings_extended += 1
                    join(i + 1)
                    env[step.slot] = UNBOUND
                elif mode == "check":
                    left_const, left = step.left
                    right_const, right = step.right
                    left_value = left if left_const else env[left]
                    right_value = right if right_const else env[right]
                    if left_value == right_value:
                        counters.bindings_extended += 1
                        join(i + 1)
                else:
                    raise EvaluationError(
                        f"Equality atom {step.atom} has no bound side at "
                        f"evaluation time; the rule is unsafe"
                    )
                return
            index = indexes[i]
            if index is None:
                index = index_for(i, step)
            key = step.static_key
            if key is None:
                key = tuple(
                    value if is_const else env[value]
                    for is_const, value in step.key_template
                )
            post_actions = step.post_actions
            bind_slots = step.bind_slots
            for row in index.lookup(key):
                counters.rows_probed += 1
                matched = True
                for is_bind, position, slot in post_actions:
                    if is_bind:
                        env[slot] = row[position]
                    elif env[slot] != row[position]:
                        matched = False
                        break
                if matched:
                    counters.bindings_extended += 1
                    join(i + 1)
                for slot in bind_slots:
                    env[slot] = UNBOUND

        join(0)
        return emissions

    def explain(self, executor: str = "rows") -> str:
        """Human-readable plan: one line per step in execution order.

        ``executor="rows"`` (default) prints the slot executor's join
        steps; ``executor="batch"`` prints the column-oriented batch
        pipeline the vectorised executor runs
        (:func:`repro.engine.vectorized.describe_batch`);
        ``executor="interned"`` prints the int-specialised pipeline —
        interned columns, int-keyed payload probes, and the packed head
        emission (:func:`repro.engine.vectorized.describe_interned`).
        """
        if executor == "batch":
            # Imported here: vectorized depends on this module.
            from repro.engine.vectorized import describe_batch
            return describe_batch(self)
        if executor == "interned":
            from repro.engine.vectorized import describe_interned
            return describe_interned(self)
        if executor != "rows":
            raise ValueError(
                f"Unknown executor {executor!r}; expected 'rows', 'batch' "
                f"or 'interned'"
            )
        if self.fact_row is not None:
            return f"fact {self.rule.head}"
        lines = []
        for step in self.steps:
            if type(step) is _EqualityStep:
                lines.append(f"equality[{step.mode}] {step.atom}")
            else:
                lines.append(f"scan {step.atom} key={step.key_positions}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------


def greedy_body_order(atoms: Sequence[Atom], database: Optional[Database],
                      overrides: Optional[Mapping[str, Relation]]
                      ) -> tuple[int, ...]:
    """The interpreter's greedy order as body-atom indices.

    Relation sizes (when a database is available at compile time) are a
    heuristic input only; any order yields the same emission multiset.
    Ties resolve to the earliest body position, matching the historical
    ``min()`` over the remaining atom list.
    """
    remaining = list(range(len(atoms)))
    ordered: list[int] = []
    bound: set[Variable] = set()

    def size_of(atom: Atom) -> int:
        name = atom.predicate.name
        if overrides and name in overrides:
            return len(overrides[name])
        if database is not None and database.has_relation(name):
            return len(database.relations[name])
        return 0

    def score(index: int) -> tuple[int, int]:
        atom = atoms[index]
        if atom.is_equality():
            left, right = atom.arguments
            left_known = not isinstance(left, Variable) or left in bound
            right_known = not isinstance(right, Variable) or right in bound
            if left_known or right_known:
                return (-2, 0)
            return (2, 0)
        shared = sum(1 for var in atom.variables() if var in bound)
        return (-shared, size_of(atom))

    while remaining:
        best = min(remaining, key=score)
        remaining.remove(best)
        ordered.append(best)
        bound.update(atoms[best].variables())
    return tuple(ordered)


def _order_atoms_static(atoms: Sequence[Atom], database: Optional[Database],
                        overrides: Optional[Mapping[str, Relation]]) -> list[Atom]:
    """The greedy order as atoms (kept for the interpreted call sites)."""
    return [atoms[i] for i in greedy_body_order(atoms, database, overrides)]


def _compile(rule: Rule, database: Optional[Database],
             overrides: Optional[Mapping[str, Relation]]) -> CompiledRule:
    head = rule.head
    head_vars = head.variables()
    body_vars = {var for atom in rule.body for var in atom.variables()}
    for var in head_vars:
        if var not in body_vars and rule.body:
            raise EvaluationError(
                f"Unsafe rule: head variable {var} does not occur in the body: {rule}"
            )

    if not rule.body:
        if not head.is_ground():
            raise EvaluationError(f"Non-ground fact cannot be evaluated: {rule}")
        fact_row = tuple(
            term.value for term in head.arguments if isinstance(term, Constant)
        )
        return CompiledRule(rule, 0, (), (), fact_row)

    body_order = greedy_body_order(rule.body, database, overrides)
    ordered = [rule.body[i] for i in body_order]

    slots: dict[Variable, int] = {}

    def slot_of(var: Variable) -> int:
        slot = slots.get(var)
        if slot is None:
            slot = len(slots)
            slots[var] = slot
        return slot

    bound: set[Variable] = set()
    steps: list[Any] = []
    for atom in ordered:
        if atom.is_equality():
            left, right = atom.arguments
            left_known = isinstance(left, Constant) or left in bound
            right_known = isinstance(right, Constant) or right in bound

            def operand(term: Any) -> tuple[bool, Any]:
                if isinstance(term, Constant):
                    return (True, term.value)
                return (False, slot_of(term))

            if left_known and right_known:
                steps.append(_EqualityStep(atom, "check",
                                           left=operand(left), right=operand(right)))
            elif left_known and isinstance(right, Variable):
                steps.append(_EqualityStep(atom, "bind", slot=slot_of(right),
                                           value=operand(left)))
                bound.add(right)
            elif right_known and isinstance(left, Variable):
                steps.append(_EqualityStep(atom, "bind", slot=slot_of(left),
                                           value=operand(right)))
                bound.add(left)
            else:
                # Neither side will ever be bound: the step raises if the
                # join reaches it (matching the interpreter).  Still assign
                # slots so the head template can be built.
                for term in (left, right):
                    if isinstance(term, Variable):
                        slot_of(term)
                steps.append(_EqualityStep(atom, "unsafe"))
            continue

        key_positions: list[int] = []
        key_template: list[tuple[bool, Any]] = []
        post_actions: list[tuple[bool, int, int]] = []
        seen_here: set[Variable] = set()
        for position, term in enumerate(atom.arguments):
            if isinstance(term, Constant):
                key_positions.append(position)
                key_template.append((True, term.value))
            elif term in bound:
                key_positions.append(position)
                key_template.append((False, slot_of(term)))
            elif term in seen_here:
                post_actions.append((False, position, slot_of(term)))
            else:
                seen_here.add(term)
                post_actions.append((True, position, slot_of(term)))
        steps.append(_ScanStep(atom, tuple(key_positions), tuple(key_template),
                               tuple(post_actions)))
        bound.update(atom.variables())

    head_template = tuple(
        (True, term.value) if isinstance(term, Constant) else (False, slots[term])
        for term in head.arguments
    )
    return CompiledRule(rule, len(slots), tuple(steps), head_template, None,
                        order=body_order)


def compile_rule(rule: Rule, database: Optional[Database] = None,
                 overrides: Optional[Mapping[str, Relation]] = None) -> CompiledRule:
    """Compile *rule*, reusing a cached plan when one exists.

    The cache is keyed by the rule value: a plan embeds no data, so it
    is correct against any database.  *database*/*overrides* only seed
    the greedy-order size heuristic on first compile.
    """
    cached = _PLAN_CACHE.get(rule)
    if cached is not None:
        return cached
    plan = _compile(rule, database, overrides)
    if len(_PLAN_CACHE) >= _PLAN_CACHE_LIMIT:
        _PLAN_CACHE.clear()
    _PLAN_CACHE[rule] = plan
    return plan


def clear_plan_cache() -> None:
    """Drop every cached plan (for tests and benchmarks)."""
    _PLAN_CACHE.clear()
