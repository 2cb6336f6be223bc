"""The query serving facade: pick a plan, answer a :class:`Query`.

:class:`QueryEngine` is the stable public entry point for *answering
queries* as opposed to *materialising closures*.  It owns a
:class:`~repro.storage.database.Database`, an
:class:`~repro.engine.parallel.EvalConfig` and per-program caches, and
routes each query through the cheapest applicable tier:

``edb``
    The predicate is a stored relation (no rules): filter it directly.
``closure`` (held)
    The engine already holds a dependency-valid closure of the
    predicate — computed by an earlier ask, or primed from a maintained
    result (always the case in a :class:`~repro.serve.LiveEngine`
    snapshot): a ground query is one set-membership test on its rows.
``labels``
    The recursion is the transitive-closure shape over a stored edge
    relation and the query binds at least one position: answer from the
    :class:`~repro.query.labels.ReachabilityLabels` index in O(label)
    per lookup — no fixpoint at all.
``closure`` (held, not ground)
    A half-bound query probes a :class:`~repro.storage.index.HashIndex`
    on its bound positions, built over the held closure on first use
    and kept beside it; anything else filters the held rows.  Labels go
    first because they answer a half-bound transitive-closure query in
    O(answer) without a build over the whole closure.
``magic``
    Nothing is held and the query's bound positions survive
    stabilisation: run the magic-sets demand rewrite
    (:mod:`repro.query.magic`) through the unchanged fixpoint drivers,
    computing only the demanded fraction.
``closure`` (computed)
    Fall back to the full fixpoint (then held, see above) and answer
    from it — the reference semantics every other tier is asserted
    against.

A held closure never runs a fixpoint, so a bound ask costs at most what
the cheapest correct way of answering it costs.  :attr:`QueryEngine.served`
counts the answers of each tier.

Every tier returns **bit-identical** answers; ``strategy=`` can force a
tier (raising :class:`~repro.exceptions.NotApplicableError` when its
preconditions fail), which is how the parity tests and the differential
fuzzer cross-check them.

The engine is immutable with respect to its database: ``Database`` is a
frozen value, so the caches keyed on this engine can never go stale.
Serving against updated facts means :meth:`QueryEngine.with_database`,
which starts a sibling engine — and invalidation is *per relation*:
every cached closure and label index records the stored relation
objects it was computed from, and a sibling keeps exactly the entries
whose dependencies are still the same objects (the identity generation
check ``Database.index`` uses).  Mutating ``edge`` therefore evicts the
``edge`` labels and the closures that read ``edge``, while an engine
serving an unrelated ``other_edge`` predicate keeps its warm caches.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Iterator, Mapping, Optional, Union

from repro.datalog.atoms import Predicate
from repro.datalog.programs import LinearRecursion, Program
from repro.datalog.terms import Variable
from repro.engine.parallel import EvalConfig
from repro.engine.seminaive import solve_linear_recursion
from repro.engine.statistics import EvaluationStatistics
from repro.exceptions import NotApplicableError, SchemaError
from repro.query.labels import ReachabilityLabels, build_labels
from repro.query.magic import MagicProgram, magic_rewrite
from repro.query.query import Query
from repro.storage.database import Database
from repro.storage.index import HashIndex
from repro.storage.relation import Relation, Row

#: The strategy tiers, cheapest first.
STRATEGIES = ("edb", "labels", "magic", "closure")

#: A cached artefact's recorded dependencies: the stored relation
#: object (or ``None`` for an absent name) per relation name it read.
_Deps = tuple[tuple[str, Optional[Relation]], ...]


def _deps_valid(deps: _Deps, database: Database) -> bool:
    """True while every recorded dependency is still the stored object."""
    relations = database.relations
    return all(relations.get(name) is relation for name, relation in deps)


@dataclass
class _HeldClosure:
    """A cached closure, what it was computed from, and indexes over it."""

    relation: Relation
    deps: _Deps
    #: Bound positions -> hash index over :attr:`relation`, built by the
    #: first half-bound ask of that adornment.  Lives and dies with the
    #: entry: the closure is immutable, so the indexes never go stale.
    indexes: dict[tuple[int, ...], HashIndex] = field(default_factory=dict)


@dataclass(frozen=True)
class QueryAnswer:
    """The answers to one query, with the strategy that produced them.

    ``relation`` holds exactly the matching tuples (already filtered by
    the query's bound values and repeated variables).  For a ground
    query, truthiness is membership: ``bool(engine.ask("path(a, b)?"))``.
    """

    query: Query
    relation: Relation
    #: Which tier produced the answer: one of :data:`STRATEGIES`.
    strategy: str
    statistics: Optional[EvaluationStatistics] = field(
        default=None, compare=False, repr=False,
    )

    @property
    def rows(self) -> frozenset[Row]:
        """The matching tuples."""
        return self.relation.rows

    def bindings(self) -> Iterator[Mapping[str, Any]]:
        """One ``{variable name: value}`` mapping per answer."""
        return self.query.bindings(sorted(self.relation.rows))

    def __len__(self) -> int:
        return len(self.relation.rows)

    def __bool__(self) -> bool:
        return bool(self.relation.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(sorted(self.relation.rows))

    def __str__(self) -> str:  # pragma: no cover - trivial
        return (
            f"QueryAnswer({self.query}, {len(self.relation.rows)} rows, "
            f"strategy={self.strategy})"
        )


def transitive_closure_edge(recursion: LinearRecursion) -> Optional[str]:
    """The edge-relation name if *recursion* is the TC shape, else None.

    Recognised: one recursive rule, left- or right-linear over a binary
    edge predicate, one exit rule copying that predicate::

        path(X, Y) :- edge(X, Z), path(Z, Y).   # or path(X, Z), edge(Z, Y)
        path(X, Y) :- edge(X, Y).

    with all head variables distinct.  For this shape the closure is
    exactly proper (≥ 1 edge) reachability over ``edge``, which the
    label index answers without any fixpoint.
    """
    if (recursion.arity != 2 or len(recursion.recursive_rules) != 1
            or len(recursion.exit_rules) != 1):
        return None

    exit_rule = recursion.exit_rules[0]
    if len(exit_rule.body) != 1:
        return None
    edge_atom = exit_rule.body[0]
    if edge_atom.is_equality() or edge_atom.predicate.arity != 2:
        return None
    head_x, head_y = exit_rule.head.arguments
    if (not isinstance(head_x, Variable) or not isinstance(head_y, Variable)
            or head_x == head_y or edge_atom.arguments != (head_x, head_y)):
        return None

    rule = recursion.recursive_rules[0]
    if len(rule.body) != 2:
        return None
    rule_x, rule_y = rule.head.arguments
    if (not isinstance(rule_x, Variable) or not isinstance(rule_y, Variable)
            or rule_x == rule_y):
        return None
    recursive_atom = rule.recursive_atoms()[0]
    other = next(atom for atom in rule.body if atom is not recursive_atom)
    if other.predicate != edge_atom.predicate:
        return None
    middle: Any
    # Left-linear: edge(X, Z), path(Z, Y).
    middle = other.arguments[1]
    if (other.arguments[0] == rule_x and isinstance(middle, Variable)
            and middle not in (rule_x, rule_y)
            and recursive_atom.arguments == (middle, rule_y)):
        return edge_atom.predicate.name
    # Right-linear: path(X, Z), edge(Z, Y).
    middle = other.arguments[0]
    if (other.arguments[1] == rule_y and isinstance(middle, Variable)
            and middle not in (rule_x, rule_y)
            and recursive_atom.arguments == (rule_x, middle)):
        return edge_atom.predicate.name
    return None


class QueryEngine:
    """Answer queries against one program and one database.

    The facade callers should use instead of importing driver
    internals: construct once, then :meth:`ask` repeatedly.  All
    expensive artefacts — full closures, magic rewrites, label
    indexes — are cached on the engine and shared across queries.
    """

    def __init__(self, database: Database,
                 program: Optional[Union[Program, str]] = None,
                 config: Union[EvalConfig, str, None] = None):
        if isinstance(program, str):
            from repro.datalog.parser import parse_program
            program = parse_program(program)
        if isinstance(config, str):
            config = EvalConfig.from_spec(config)
        self.database = database
        self.program = program
        self.config = config
        self._idb: frozenset[Predicate] = (
            program.idb_predicates if program is not None else frozenset()
        )
        self._idb_arity = {p.name: p.arity for p in self._idb}
        #: Cached artefacts carry the stored relation objects they were
        #: computed from (``(name, relation-or-None)`` pairs), so
        #: validity is an identity generation check against the current
        #: database — both across :meth:`with_database` siblings and
        #: against in-place relation swaps on this engine's own
        #: database.
        self._closures: dict[Predicate, _HeldClosure] = {}
        self._magic: dict[tuple[Predicate, tuple[int, ...]], MagicProgram] = {}
        self._labels: dict[tuple[str, bool], tuple[ReachabilityLabels, _Deps]] = {}
        self._recursions: dict[Predicate, LinearRecursion] = {}
        #: Answers per tier, plus ``magic_fallback``; shared with every
        #: :meth:`with_database` sibling and updated from the
        #: ``asyncio.to_thread`` workers :class:`repro.serve.LiveEngine`
        #: answers on, hence the lock.
        self._served: Counter[str] = Counter()
        self._served_lock = threading.Lock()

    @property
    def served(self) -> Mapping[str, int]:
        """Answers given so far, per tier (read-only, live).

        Keys are the :data:`STRATEGIES` that have answered at least one
        query, plus ``magic_fallback``: the ``closure`` answers that ran
        the full fixpoint for a *bound* query because the demand rewrite
        did not apply.  Counts carry across :meth:`with_database`
        siblings, so a live engine's are for its whole lifetime.
        """
        return MappingProxyType(self._served)

    def with_database(self, database: Database) -> "QueryEngine":
        """A sibling engine over *database*, invalidated per relation.

        The program, config, magic rewrites, recursion views and
        :attr:`served` counts carry over wholesale (they depend only on
        the rules, not the facts).  Closures (with the hash indexes
        built over them) and label indexes carry over *per relation*:
        an entry survives exactly when every stored relation it was
        computed from is the same object in *database* — so updating
        ``edge`` keeps the warm closures and labels of predicates that
        never read ``edge``.
        """
        sibling = QueryEngine(database, self.program, self.config)
        sibling._magic = self._magic  # rule-only artefact, database-independent
        sibling._recursions = self._recursions  # likewise rule-only
        sibling._served = self._served
        sibling._served_lock = self._served_lock
        for predicate, held in self._closures.items():
            if _deps_valid(held.deps, database):
                sibling._closures[predicate] = held
        for label_key, (labels, deps) in self._labels.items():
            if _deps_valid(deps, database):
                sibling._labels[label_key] = (labels, deps)
        return sibling

    # ------------------------------------------------------------------
    # Cached artefacts
    # ------------------------------------------------------------------

    def recursion_of(self, predicate: Predicate) -> LinearRecursion:
        """The (cached) linear-recursion view of *predicate*'s rules."""
        recursion = self._recursions.get(predicate)
        if recursion is None:
            if self.program is None:
                raise NotApplicableError(
                    f"No program given; {predicate} has no rules"
                )
            recursion = self.program.linear_recursion_of(predicate)
            self._recursions[predicate] = recursion
        return recursion

    def _closure_dependencies(self, predicate: Predicate) -> "_Deps":
        """The stored relations *predicate*'s fixpoint reads.

        Every non-equality body predicate of the recursion other than
        the recursive predicate itself, paired with the relation object
        currently stored under its name (``None`` when absent — an
        absent name reads as the empty relation, which is a stable
        state of its own).
        """
        recursion = self.recursion_of(predicate)
        names = sorted({
            atom.predicate.name
            for rule in (*recursion.exit_rules, *recursion.recursive_rules)
            for atom in rule.body
            if not atom.is_equality() and atom.predicate.name != predicate.name
        })
        return tuple(
            (name, self.database.relations.get(name)) for name in names
        )

    def _held_closure(self, predicate: Predicate) -> Optional[_HeldClosure]:
        """The cached closure entry of *predicate*, if still valid."""
        held = self._closures.get(predicate)
        if held is not None and _deps_valid(held.deps, self.database):
            return held
        return None

    def _hold_closure(self, predicate: Predicate,
                      statistics: Optional[EvaluationStatistics] = None
                      ) -> _HeldClosure:
        """The held closure of *predicate*, computing it if needed."""
        held = self._held_closure(predicate)
        if held is None:
            relation = solve_linear_recursion(
                self.recursion_of(predicate), self.database,
                statistics, config=self.config,
            )
            held = self._closures[predicate] = _HeldClosure(
                relation, self._closure_dependencies(predicate))
        return held

    def closure(self, predicate: Predicate,
                statistics: Optional[EvaluationStatistics] = None) -> Relation:
        """The full fixpoint of *predicate* (cached per engine).

        The cache entry is keyed to the stored relation objects the
        fixpoint read; it is recomputed if any of them has been swapped
        since (and carried across :meth:`with_database` siblings while
        none of them has).
        """
        return self._hold_closure(predicate, statistics).relation

    def prime_closure(self, predicate: Predicate, closure: Relation) -> None:
        """Seed the closure cache with an externally maintained result.

        The serving layer (:mod:`repro.serve`) computes closures
        incrementally; priming lets a snapshot's engine answer from the
        maintained result without ever running a fixpoint.  The entry
        records the current stored dependencies, so it invalidates
        exactly like a computed one.  Priming builds nothing: an index
        over the closure appears only when a half-bound ask wants it,
        and re-priming the relation object already held keeps them.
        """
        if closure.arity != predicate.arity:
            raise NotApplicableError(
                f"Cannot prime {predicate} with a relation of arity "
                f"{closure.arity}"
            )
        held = self._held_closure(predicate)
        if held is None or held.relation is not closure:
            self._closures[predicate] = _HeldClosure(
                closure, self._closure_dependencies(predicate))

    def magic_program(self, predicate: Predicate,
                      bound: tuple[int, ...]) -> MagicProgram:
        """The (cached) demand rewrite of *predicate* for bound positions."""
        key = (predicate, bound)
        cached = self._magic.get(key)
        if cached is None:
            cached = magic_rewrite(
                self.recursion_of(predicate), bound,
                reserved_names=self.database.names(),
            )
            self._magic[key] = cached
        return cached

    def labels(self, edge_name: str, reverse: bool = False) -> ReachabilityLabels:
        """The (cached) reachability-label index over *edge_name*.

        Keyed to the stored edge relation object: any swap of
        ``edge_name`` — growth *or* deletion — invalidates the index
        (labels are not incrementally maintainable under deletes, so
        correctness demands eviction, then a lazy rebuild).
        """
        key = (edge_name, reverse)
        entry = self._labels.get(key)
        if entry is not None and _deps_valid(entry[1], self.database):
            return entry[0]
        cached = build_labels(self.database, edge_name, reverse=reverse)
        deps: _Deps = ((edge_name, self.database.relations.get(edge_name)),)
        self._labels[key] = (cached, deps)
        return cached

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def _resolve(self, query: Union[Query, str]) -> Query:
        """Parse *query* if textual, and check it against the program."""
        query = Query.parse(query) if isinstance(query, str) else query
        if query.predicate not in self._idb and query.name in self._idb_arity:
            raise SchemaError(
                f"Predicate {query.name} has arity "
                f"{self._idb_arity[query.name]}, expected {query.arity}"
            )
        return query

    def plan(self, query: Union[Query, str]) -> str:
        """The strategy :meth:`ask` would pick for *query* (no evaluation)."""
        return self._plan(self._resolve(query))

    def _plan(self, query: Query) -> str:
        if query.predicate not in self._idb:
            return "edb"
        held = self._held_closure(query.predicate) is not None
        if held and query.is_ground():
            return "closure"
        if self._labels_applicable(query, self.recursion_of(query.predicate)):
            return "labels"
        if query.bound_positions and not held:
            try:
                self.magic_program(query.predicate, query.bound_positions)
                return "magic"
            except NotApplicableError:
                pass
        return "closure"

    def _labels_applicable(self, query: Query,
                           recursion: LinearRecursion) -> bool:
        if query.repeated_groups or not query.bound_positions:
            return False
        edge_name = transitive_closure_edge(recursion)
        if edge_name is None:
            return False
        # The edge must be a stored EDB relation: if rules define it, the
        # stored rows are not the whole graph.
        if Predicate(edge_name, 2) in self._idb:
            return False
        return self.database.has_relation(edge_name)

    # ------------------------------------------------------------------
    # Answering
    # ------------------------------------------------------------------

    def ask(self, query: Union[Query, str],
            strategy: str = "auto") -> QueryAnswer:
        """Answer *query* via *strategy* (``auto`` picks the cheapest tier).

        Forcing a tier (``strategy="magic"`` etc.) raises
        :class:`~repro.exceptions.NotApplicableError` when its
        preconditions fail — the parity harnesses use this to cross-check
        tiers against each other.
        """
        query = self._resolve(query)
        if strategy != "auto" and strategy not in STRATEGIES:
            raise ValueError(
                f"Unknown strategy {strategy!r}; expected 'auto' or one of "
                f"{STRATEGIES}"
            )

        fallback = False
        if strategy == "auto":
            strategy = self._plan(query)
            # A bound query is planned onto a closure nobody holds only
            # when neither labels nor the demand rewrite apply.
            fallback = (strategy == "closure" and bool(query.bound_positions)
                        and self._held_closure(query.predicate) is None)
        elif strategy == "edb":
            if query.predicate in self._idb:
                raise NotApplicableError(
                    f"{query.predicate} is defined by rules, not stored"
                )
        elif query.predicate not in self._idb:
            raise NotApplicableError(
                f"{query.predicate} is a stored relation; only 'edb'/'auto' apply"
            )

        statistics = EvaluationStatistics()
        if strategy == "edb":
            stored = self.database.relation(query.name, query.arity)
            answer = QueryAnswer(query, query.filter(stored), "edb", statistics)
        elif strategy == "labels":
            answer = self._ask_labels(query, statistics)
        elif strategy == "magic":
            answer = self._ask_magic(query, statistics)
        else:
            answer = self._ask_closure(query, statistics)
        with self._served_lock:
            self._served[strategy] += 1
            if fallback:
                self._served["magic_fallback"] += 1
        return answer

    def _ask_closure(self, query: Query,
                     statistics: EvaluationStatistics) -> QueryAnswer:
        held = self._hold_closure(query.predicate, statistics)
        relation = held.relation
        if query.is_ground() or not query.bound_positions:
            return QueryAnswer(query, query.filter(relation), "closure",
                               statistics)
        bound = query.bound_positions
        index = held.indexes.get(bound)
        if index is None:
            index = held.indexes[bound] = HashIndex(relation, bound)
        rows: Any = index.lookup(query.bound_values)
        if query.repeated_groups:
            rows = filter(query.matches, rows)
        answers = Relation.from_canonical(
            relation.name, relation.arity, frozenset(rows))
        return QueryAnswer(query, answers, "closure", statistics)

    def _ask_labels(self, query: Query,
                    statistics: EvaluationStatistics) -> QueryAnswer:
        recursion = self.recursion_of(query.predicate)
        if not self._labels_applicable(query, recursion):
            raise NotApplicableError(
                f"Label index not applicable to {query} (needs the "
                f"transitive-closure shape over a stored edge relation and "
                f"at least one bound position)"
            )
        edge_name = transitive_closure_edge(recursion)
        assert edge_name is not None
        name = query.name
        rows: set[Row] = set()
        if query.is_ground():
            source, target = query.bound_values
            if self.labels(edge_name).reaches(source, target):
                rows.add((source, target))
        elif query.bound_positions == (0,):
            (source,) = query.bound_values
            rows.update(self.labels(edge_name).pairs_from(source))
        else:  # bound_positions == (1,): predecessors via the reversed graph
            (target,) = query.bound_values
            rows.update(
                (source, target) for _, source
                in self.labels(edge_name, reverse=True).pairs_from(target)
            )
        relation = Relation.from_canonical(name, 2, frozenset(rows))
        return QueryAnswer(query, relation, "labels", statistics)

    def _ask_magic(self, query: Query,
                   statistics: EvaluationStatistics) -> QueryAnswer:
        if not query.bound_positions:
            raise NotApplicableError(
                f"{query} binds nothing; the demand rewrite cannot restrict"
            )
        magic = self.magic_program(query.predicate, query.bound_positions)
        bound_values = tuple(
            query.atom.arguments[position].value  # type: ignore[union-attr]
            for position in magic.bound_positions
        )
        demanded = magic.solve(
            bound_values, self.database, statistics, config=self.config,
        )
        return QueryAnswer(query, query.filter(demanded), "magic", statistics)

    def __str__(self) -> str:  # pragma: no cover - trivial
        rules = len(self.program) if self.program is not None else 0
        return (
            f"QueryEngine({len(self.database)} relations, {rules} rules, "
            f"{len(self._closures)} cached closures)"
        )


def answer(query: Union[Query, str], program: Union[Program, str],
           database: Database,
           config: Optional[EvalConfig] = None) -> QueryAnswer:
    """One-shot convenience: build an engine, answer one query.

    For repeated queries construct a :class:`QueryEngine` and reuse it —
    that is what makes the caches pay.
    """
    return QueryEngine(database, program, config).ask(query)
