"""Counting/DRed incremental maintenance of materialised closures.

The Theorem-3.1 accounting the drivers already produce is exactly the
state counting-IVM needs.  For a linear recursion ``P = A P ∪ Q`` over
a base EDB this module maintains, per materialised predicate:

* ``T`` — the closure relation itself;
* ``q(t)`` — the number of exit-rule body instantiations over the EDB
  producing ``t`` (the *exit support*; ``Q = {t : q(t) > 0}``);
* ``supp(t)`` — the number of recursive-rule body instantiations over
  ``(T, EDB)`` producing ``t`` (the *recursive support* — the
  in-degree of ``t`` in the derivation graph of Theorem 3.1).

From that state the cold drivers' counters are derived exactly:
``derivations = Σ_t supp(t)`` (each closure tuple sits in the
semi-naive delta exactly once, so every body instantiation over the
final ``T`` fires exactly once across the run), ``duplicates =
derivations − (|T| − |Q|)`` (every emission except the first of each
non-exit tuple re-derives a known tuple; exit rules record no
derivations), ``initial_size = |Q|`` and ``result_size = |T|``.
``iterations`` is a property of one particular evaluation schedule,
not of the result, and is deliberately **not** maintained.

Updates run in two phases per batch:

* **Delete phase** (counting-accelerated DRed).  Signed telescoped
  expansions (:mod:`repro.ivm.delta`) decrement ``q`` from deleted
  base rows, and ``supp`` for every lost instantiation (base deltas
  joined against the ``T`` snapshot).  Affected tuples whose exit
  support is exhausted are *over-deleted*; the over-delete cascades
  through the unchanged drivers (``rec := Δ⁻`` overrides against the
  post-delete EDB), decrementing ``supp`` as it goes — but tuples with
  ``q > 0`` are roots and are never deleted, which is the counting
  optimisation over plain DRed.  After the cascade the remaining
  ``supp`` of an over-deleted tuple counts exactly its instantiations
  from *surviving* tuples, so the re-derivation seed is read straight
  off the counters — no evaluation — and the re-derivation fixpoint
  (again ``rec := Δ`` through the drivers) restores tuples and
  re-increments the support their consumers lost.  Tuples that stay
  deleted provably end at ``supp == 0``.

* **Insert phase** (pure counting).  Exit expansions increment ``q``
  (tuples entering ``Q`` seed the insert delta), recursive expansions
  over added base rows joined against the pre-insert ``T`` snapshot
  increment ``supp``, and the semi-naive insert fixpoint propagates
  the new tuples through the drivers on the post-insert EDB.

All fixpoint propagation goes through
:class:`~repro.engine.parallel.Evaluator`, so maintenance runs
under any mode, and the differential fuzzer
asserts the maintained ``(T, counters)`` bit-identical to a cold
recompute after every batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Union

from repro.datalog.atoms import Predicate
from repro.datalog.programs import LinearRecursion, Program
from repro.engine.parallel import EvalConfig, Evaluator
from repro.engine.plan import compile_rule
from repro.engine.seminaive import seminaive_closure
from repro.engine.statistics import EvaluationStatistics, JoinCounters
from repro.engine.vectorized import execute_batch
from repro.exceptions import EvaluationError, SchemaError
from repro.ivm.delta import DELTA, POST, PRE, DeltaRule, delta_expansions
from repro.storage.database import Database
from repro.storage.relation import Relation, Row, rows_added_since


@dataclass(frozen=True)
class Delta:
    """Net row changes of one relation across a committed batch."""

    added: frozenset[Row] = frozenset()
    removed: frozenset[Row] = frozenset()

    def __bool__(self) -> bool:
        return bool(self.added or self.removed)


@dataclass(frozen=True)
class ChangeSet:
    """What one :meth:`MaterializedProgram.apply` call changed.

    ``relations`` maps mutated base-relation names to their net row
    deltas; ``predicates`` maps maintained predicate names to the net
    deltas of their closures.  Empty deltas are omitted, so truthiness
    means "something actually changed".
    """

    generation: int
    relations: Mapping[str, Delta] = field(default_factory=dict)
    predicates: Mapping[str, Delta] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return bool(self.relations or self.predicates)

    def touched(self) -> frozenset[str]:
        """Every relation or predicate name with a non-empty delta."""
        return frozenset(self.relations) | frozenset(self.predicates)


@dataclass(frozen=True)
class MaintainedState:
    """The portable ``(T, q, supp)`` state of one maintained closure.

    Everything a :class:`MaintainedClosure` needs to resume without the
    cold fixpoint: the closure rows, the exit-support and
    recursive-support counters.  This is what checkpoints persist
    (:mod:`repro.durability.checkpoint`) and what recovery feeds back
    through :meth:`MaintainedClosure.from_state`.
    """

    rows: frozenset[Row]
    q: Mapping[Row, int]
    supp: Mapping[Row, int]


def stage_batch(relations: Mapping[str, Relation], idb_names: frozenset[str],
                inserts: Mapping[str, Iterable[Row]],
                deletes: Mapping[str, Iterable[Row]]
                ) -> dict[str, tuple[frozenset[Row], frozenset[Row]]]:
    """Validate and net out a mutation batch: name → (removed, added).

    Deletes apply before inserts, so a row in both sets nets to an
    insert; rows already present (or already absent) net to nothing.
    All validation happens before any state changes, so a rejected
    batch leaves the caller untouched.  Shared by the maintaining
    coordinator and the recompute-per-commit baseline, which must agree
    on what a batch *means* to be differential-testable against each
    other.
    """
    staged: dict[str, tuple[frozenset[Row], frozenset[Row]]] = {}
    for name in sorted(set(inserts) | set(deletes)):
        if name in idb_names:
            raise SchemaError(
                f"{name!r} is defined by rules; derived relations "
                f"change only through maintenance (mutate the base "
                f"relations instead)"
            )
        insert_rows = frozenset(
            tuple(row) for row in inserts.get(name, ()))
        delete_rows = frozenset(
            tuple(row) for row in deletes.get(name, ()))
        stored = relations.get(name)
        arity = stored.arity if stored is not None else None
        for row in (*insert_rows, *delete_rows):
            if arity is None:
                arity = len(row)
            elif len(row) != arity:
                raise SchemaError(
                    f"Row {row!r} for {name!r} has arity {len(row)}, "
                    f"expected {arity}"
                )
        old_rows = stored.rows if stored is not None else frozenset()
        new_rows = (old_rows - delete_rows) | insert_rows
        staged[name] = (old_rows - new_rows, new_rows - old_rows)
    return staged


class MaintainedClosure:
    """One linear recursion's closure, kept live under EDB mutations.

    Owns the ``(T, q, supp)`` state described in the module docstring
    plus a private scratch database for the signed delta expansions.
    Construction runs the cold fixpoint through the unchanged drivers,
    derives the support counts with one extra rule application over the
    final closure, and cross-checks them against the cold run's
    Theorem-3.1 counters — any divergence is a maintenance bug and
    raises immediately rather than serving drifting answers.
    """

    def __init__(self, recursion: LinearRecursion, working: Database,
                 config: Optional[EvalConfig] = None,
                 max_iterations: int = 100_000):
        self._setup(recursion, working, config, max_iterations)
        self._initialise()

    @classmethod
    def from_state(cls, recursion: LinearRecursion, working: Database,
                   state: MaintainedState,
                   config: Optional[EvalConfig] = None,
                   max_iterations: int = 100_000) -> "MaintainedClosure":
        """Resume from a checkpointed ``(T, q, supp)`` state.

        Skips the cold fixpoint entirely — the recovery path's whole
        point.  The state is trusted as-checkpointed (checkpoints are
        checksummed); the crash-injection parity suite asserts that a
        resumed closure is bit-identical to a cold rebuild.
        """
        closure = cls.__new__(cls)
        closure._setup(recursion, working, config, max_iterations)
        closure.q = dict(state.q)
        closure.supp = dict(state.supp)
        closure.closure = Relation.from_canonical(
            recursion.predicate.name, recursion.predicate.arity,
            frozenset(state.rows),
        )
        return closure

    def state(self) -> MaintainedState:
        """A portable snapshot of the ``(T, q, supp)`` state."""
        return MaintainedState(rows=self.closure.rows, q=dict(self.q),
                               supp=dict(self.supp))

    def _setup(self, recursion: LinearRecursion, working: Database,
               config: Optional[EvalConfig],
               max_iterations: int) -> None:
        self.recursion = recursion
        self.predicate = recursion.predicate
        self.working = working
        self.config = config
        self.max_iterations = max_iterations
        name = self.predicate.name
        self._base_arity: dict[str, int] = {}
        for rule in (*recursion.exit_rules, *recursion.recursive_rules):
            for atom in rule.body:
                if atom.is_equality() or atom.predicate.name == name:
                    continue
                arity = self._base_arity.setdefault(
                    atom.predicate.name, atom.predicate.arity
                )
                if arity != atom.predicate.arity:
                    raise SchemaError(
                        f"Base predicate {atom.predicate.name!r} used with "
                        f"arities {arity} and {atom.predicate.arity}"
                    )
        #: Base relations this closure reads; mutations elsewhere are
        #: no-ops for it.
        self.base_names = frozenset(self._base_arity)
        self._exit_expansions: tuple[DeltaRule, ...] = tuple(
            variant for rule in recursion.exit_rules
            for variant in delta_expansions(rule, name)
        )
        self._recursive_expansions: tuple[DeltaRule, ...] = tuple(
            variant for rule in recursion.recursive_rules
            for variant in delta_expansions(rule, name)
        )
        self._scratch = Database({})
        self._delta_config = EvalConfig(executor="batch")
        self._renamed_cache: dict[str, tuple[Relation, Relation]] = {}
        self._empty_deltas: dict[str, Relation] = {}
        self._joins = JoinCounters()
        self.q: dict[Row, int] = {}
        self.supp: dict[Row, int] = {}
        self.closure = Relation.empty(name, self.predicate.arity)

    # ------------------------------------------------------------------
    # Cold start
    # ------------------------------------------------------------------

    def _initialise(self) -> None:
        name = self.predicate.name
        arity = self.predicate.arity
        q: dict[Row, int] = {}
        for rule in self.recursion.exit_rules:
            plan = compile_rule(rule, self.working)
            for row, count in execute_batch(plan, self.working,
                                            counters=self._joins):
                q[row] = q.get(row, 0) + count
        self.q = q
        initial = Relation.from_canonical(name, arity, frozenset(q))
        cold = EvaluationStatistics()
        self.closure = seminaive_closure(
            self.recursion.recursive_rules, initial, self.working, cold,
            self.max_iterations, config=self.config,
        )
        supp: dict[Row, int] = {}
        pairs = self._evaluator().execute_batch({name: self.closure},
                                                EvaluationStatistics())
        for row, count in pairs:
            supp[row] = supp.get(row, 0) + count
        self.supp = supp
        derived = self.statistics()
        if (derived.derivations != cold.derivations
                or derived.duplicates != cold.duplicates):
            raise EvaluationError(
                f"IVM support accounting diverged from the cold fixpoint "
                f"for {self.predicate}: maintained "
                f"({derived.derivations}, {derived.duplicates}) vs cold "
                f"({cold.derivations}, {cold.duplicates})"
            )

    # ------------------------------------------------------------------
    # Derived Theorem-3.1 counters
    # ------------------------------------------------------------------

    def statistics(self) -> EvaluationStatistics:
        """The cold drivers' counters, derived from ``(T, q, supp)``.

        ``derivations``, ``duplicates``, ``initial_size`` and
        ``result_size`` are bit-identical to what a from-scratch
        evaluation against the current EDB would record.
        ``iterations`` (and ``rule_applications``) describe one
        particular evaluation schedule, not the result, and are left at
        zero — the differential harnesses compare the maintained
        counters only.
        """
        statistics = EvaluationStatistics()
        statistics.derivations = sum(self.supp.values())
        statistics.initial_size = len(self.q)
        statistics.result_size = len(self.closure.rows)
        statistics.duplicates = statistics.derivations - (
            statistics.result_size - statistics.initial_size
        )
        return statistics

    # ------------------------------------------------------------------
    # Scratch-state plumbing
    # ------------------------------------------------------------------

    def _renamed(self, source: Relation, name: str) -> Relation:
        """A copy of *source* stored under the scratch *name*.

        Cached by identity and extended through the ``extended_with``
        lineage, so the scratch database's index caches stay warm
        across batches whenever the source relation only grew (or did
        not change at all).
        """
        entry = self._renamed_cache.get(name)
        if entry is not None:
            previous, renamed = entry
            if previous is source:
                return renamed
            added = rows_added_since(source, previous)
            if added is not None:
                renamed = renamed.extended_with(added)
                self._renamed_cache[name] = (source, renamed)
                return renamed
        renamed = Relation.from_canonical(name, source.arity, source.rows)
        self._renamed_cache[name] = (source, renamed)
        return renamed

    def _empty_delta(self, base: str) -> Relation:
        empty = self._empty_deltas.get(base)
        if empty is None:
            empty = Relation.empty(base + DELTA, self._base_arity[base])
            self._empty_deltas[base] = empty
        return empty

    def _load_scratch(self, pre: Mapping[str, Relation],
                      deltas: Mapping[str, frozenset[Row]]) -> None:
        """Point the suffixed scratch relations at this phase's states.

        *pre* holds the pre-phase relation per mutated base name (the
        working database already stores the post-phase state); *deltas*
        the driving row sets.  Unmutated bases read the stored relation
        under both suffixes, and the recursive predicate's ``PRE``
        snapshot is the closure as of phase entry.
        """
        swap = self._scratch._replace_relation_unchecked
        for base in sorted(self.base_names):
            arity = self._base_arity[base]
            stored = self.working.relations.get(base)
            if stored is None:
                stored = Relation.empty(base, arity)
            post_source = stored
            pre_source = pre.get(base, post_source)
            swap(self._renamed(post_source, base + POST))
            swap(self._renamed(pre_source, base + PRE))
            delta_rows = deltas.get(base)
            if delta_rows:
                swap(Relation.from_canonical(base + DELTA, arity,
                                             frozenset(delta_rows)))
            else:
                swap(self._empty_delta(base))
        swap(self._renamed(self.closure, self.predicate.name + PRE))

    def _expand(self, variants: tuple[DeltaRule, ...],
                deltas: Mapping[str, frozenset[Row]]
                ) -> Iterator[tuple[Row, int]]:
        """Evaluate the variants whose driving delta is non-empty."""
        for variant in variants:
            if not deltas.get(variant.delta_name):
                continue
            plan = compile_rule(variant.rule, self._scratch)
            yield from execute_batch(plan, self._scratch,
                                     counters=self._joins)

    def _evaluator(self) -> Evaluator:
        """A driver-grade evaluator over the recursive rules.

        Fresh per phase: the working database mutates between phases,
        so the evaluator must not outlive the EDB state it was built
        over.

        The cascade always runs on the batch executor, whatever the
        configured mode: maintenance deltas are small and arrive round
        after round, so per-row executor overhead dominates there, while
        results and counters are identical across executors (the
        differential harnesses assert exactly that).  The configured
        mode still governs the cold-start fixpoint, where the big
        batches live.
        """
        plans = [compile_rule(rule, self.working)
                 for rule in self.recursion.recursive_rules]
        return Evaluator(plans, self.working, self._delta_config)

    def _negative_supp(self, row: Row) -> None:
        raise EvaluationError(
            f"Negative recursive support for {row!r} of "
            f"{self.predicate} — IVM accounting bug"
        )

    # ------------------------------------------------------------------
    # Delete phase: counting-accelerated DRed
    # ------------------------------------------------------------------

    def apply_deletes(self, pre: Mapping[str, Relation],
                      removed: Mapping[str, frozenset[Row]]) -> frozenset[Row]:
        """Maintain the closure after base-row deletions.

        Called with the working database already at the post-delete
        state; *pre* holds the pre-delete relations of the mutated
        names.  Returns the tuples that left the closure.
        """
        relevant = {name: rows for name, rows in removed.items()
                    if name in self.base_names and rows}
        if not relevant:
            return frozenset()
        name = self.predicate.name
        arity = self.predicate.arity
        self._load_scratch(pre, relevant)

        # The pair loops below are the maintenance hot path (one pass
        # per lost instantiation), so the ``q``/``supp`` bookkeeping
        # runs inline over local references — no per-pair method call.
        q = self.q
        supp = self.supp
        candidates: set[Row] = set()
        for row, count in self._expand(self._exit_expansions, relevant):
            value = q.get(row, 0) - count
            if value < 0:
                raise EvaluationError(
                    f"Negative exit support for {row!r} of "
                    f"{self.predicate} — IVM accounting bug"
                )
            if value:
                q[row] = value
            else:
                q.pop(row, None)
                candidates.add(row)
        for row, count in self._expand(self._recursive_expansions, relevant):
            value = supp.get(row, 0) - count
            if value > 0:
                supp[row] = value
            elif value == 0:
                supp.pop(row, None)
            else:
                self._negative_supp(row)
            candidates.add(row)

        closure_rows = self.closure.rows
        overdeleted = {
            row for row in candidates
            if row in closure_rows and row not in self.q
        }
        all_overdeleted = set(overdeleted)
        evaluator = self._evaluator()
        scratch_stats = EvaluationStatistics()
        # Over-delete cascade: every tuple that loses a derivation
        # and has no exit support is conservatively deleted; its
        # consumers' support is decremented as the wave passes.
        delta = overdeleted
        rounds = 0
        while delta:
            rounds += 1
            if rounds > self.max_iterations:
                raise EvaluationError(
                    "Over-delete cascade did not converge within "
                    f"{self.max_iterations} iterations"
                )
            delta_relation = Relation.from_canonical(
                name, arity, frozenset(delta))
            pairs = evaluator.execute_batch({name: delta_relation},
                                            scratch_stats)
            next_delta: set[Row] = set()
            for row, count in pairs:
                value = supp.get(row, 0) - count
                if value > 0:
                    supp[row] = value
                elif value == 0:
                    supp.pop(row, None)
                else:
                    self._negative_supp(row)
                if (row not in all_overdeleted and row in closure_rows
                        and row not in q):
                    next_delta.add(row)
                    all_overdeleted.add(row)
            delta = next_delta

        # Re-derivation.  After the cascade, the remaining supp of
        # an over-deleted tuple counts exactly its instantiations
        # from surviving tuples over the post-delete EDB, so the
        # seed needs no evaluation — this is what the support
        # counters buy over textbook DRed.
        restored = {
            row for row in all_overdeleted
            if supp.get(row, 0) > 0 or row in q
        }
        delta = set(restored)
        rounds = 0
        while delta:
            rounds += 1
            if rounds > self.max_iterations:
                raise EvaluationError(
                    "Re-derivation did not converge within "
                    f"{self.max_iterations} iterations"
                )
            delta_relation = Relation.from_canonical(
                name, arity, frozenset(delta))
            pairs = evaluator.execute_batch({name: delta_relation},
                                            scratch_stats)
            next_delta = set()
            for row, count in pairs:
                supp[row] = supp.get(row, 0) + count
                if row in all_overdeleted and row not in restored:
                    next_delta.add(row)
                    restored.add(row)
            delta = next_delta

        removed_tuples = frozenset(all_overdeleted - restored)
        for row in removed_tuples:
            if supp.get(row, 0):
                raise EvaluationError(
                    f"Deleted tuple {row!r} of {self.predicate} retains "
                    f"support — IVM accounting bug"
                )
            supp.pop(row, None)
        if removed_tuples:
            self.closure = Relation.from_canonical(
                name, arity, closure_rows - removed_tuples)
        return removed_tuples

    # ------------------------------------------------------------------
    # Insert phase: pure counting
    # ------------------------------------------------------------------

    def apply_inserts(self, pre: Mapping[str, Relation],
                      added: Mapping[str, frozenset[Row]]) -> frozenset[Row]:
        """Maintain the closure after base-row insertions.

        Called with the working database already at the post-insert
        state; *pre* holds the pre-insert relations of the mutated
        names.  Returns the tuples that entered the closure.
        """
        relevant = {name: rows for name, rows in added.items()
                    if name in self.base_names and rows}
        if not relevant:
            return frozenset()
        name = self.predicate.name
        arity = self.predicate.arity
        # The PRE snapshot of the recursive predicate must exclude this
        # phase's new tuples (they are counted by the propagation
        # fixpoint), so load the scratch before touching the closure.
        self._load_scratch(pre, relevant)

        # Hot path: increments inlined over local references, as in
        # :meth:`apply_deletes` (inserts only ever add support, so the
        # negative-value guard is unnecessary here).
        q = self.q
        supp = self.supp
        closure_rows = self.closure.rows
        seeds: set[Row] = set()
        for row, count in self._expand(self._exit_expansions, relevant):
            q[row] = q.get(row, 0) + count
            if row not in closure_rows:
                seeds.add(row)
        for row, count in self._expand(self._recursive_expansions, relevant):
            supp[row] = supp.get(row, 0) + count
            if row not in closure_rows:
                seeds.add(row)

        added_tuples = set(seeds)
        evaluator = self._evaluator()
        scratch_stats = EvaluationStatistics()
        delta = seeds
        rounds = 0
        while delta:
            rounds += 1
            if rounds > self.max_iterations:
                raise EvaluationError(
                    "Insert propagation did not converge within "
                    f"{self.max_iterations} iterations"
                )
            delta_relation = Relation.from_canonical(
                name, arity, frozenset(delta))
            pairs = evaluator.execute_batch({name: delta_relation},
                                            scratch_stats)
            next_delta: set[Row] = set()
            for row, count in pairs:
                supp[row] = supp.get(row, 0) + count
                if row not in closure_rows and row not in added_tuples:
                    next_delta.add(row)
                    added_tuples.add(row)
            delta = next_delta

        if added_tuples:
            # extended_with keeps the extension lineage, so downstream
            # index/interned caches over the closure extend in place.
            self.closure = self.closure.extended_with(added_tuples)
        return frozenset(added_tuples)


class MaterializedProgram:
    """Every linear recursion of a program, maintained under mutations.

    The synchronous IVM coordinator: owns a *private* working database
    (mutated in place through the generation-checked caches) and one
    :class:`MaintainedClosure` per IDB predicate.  The asyncio serving
    layer (:mod:`repro.serve`) wraps this in a single-writer /
    many-snapshot-reader protocol; direct use is for synchronous
    embedding, the benchmarks and the differential fuzzer.
    """

    def __init__(self, program: Union[Program, str], database: Database,
                 config: Optional[EvalConfig] = None,
                 max_iterations: int = 100_000):
        if isinstance(program, str):
            from repro.datalog.parser import parse_program
            program = parse_program(program)
        self.program = program
        self.config = config
        self.generation = 0
        self._idb_names = frozenset(
            predicate.name for predicate in program.idb_predicates
        )
        self.working = Database(dict(database.relations))
        self.closures: dict[Predicate, MaintainedClosure] = {}
        for predicate in sorted(program.idb_predicates):
            self.closures[predicate] = MaintainedClosure(
                program.linear_recursion_of(predicate), self.working,
                config, max_iterations,
            )

    @classmethod
    def from_state(cls, program: Union[Program, str], database: Database,
                   states: Mapping[str, MaintainedState],
                   generation: int = 0,
                   config: Optional[EvalConfig] = None,
                   max_iterations: int = 100_000) -> "MaterializedProgram":
        """Resume from checkpointed per-predicate states.

        *database* is adopted **as-is** as the working database — the
        checkpoint loader has already primed its interned storage, and
        copying the relation mapping into a fresh
        :class:`~repro.storage.database.Database` would throw those
        mmap-backed caches away.  Every IDB predicate must have a state
        in *states*; the cold fixpoint never runs.
        """
        if isinstance(program, str):
            from repro.datalog.parser import parse_program
            program = parse_program(program)
        materialized = cls.__new__(cls)
        materialized.program = program
        materialized.config = config
        materialized.generation = generation
        materialized._idb_names = frozenset(
            predicate.name for predicate in program.idb_predicates
        )
        materialized.working = database
        materialized.closures = {}
        for predicate in sorted(program.idb_predicates):
            state = states.get(predicate.name)
            if state is None:
                raise SchemaError(
                    f"No checkpointed state for maintained predicate "
                    f"{predicate.name!r}"
                )
            materialized.closures[predicate] = MaintainedClosure.from_state(
                program.linear_recursion_of(predicate), materialized.working,
                state, config, max_iterations,
            )
        return materialized

    # ------------------------------------------------------------------

    def closure(self, predicate: Union[Predicate, str]) -> Relation:
        """The maintained closure of *predicate*."""
        return self._maintained(predicate).closure

    def statistics(self, predicate: Union[Predicate, str]
                   ) -> EvaluationStatistics:
        """The derived Theorem-3.1 counters of *predicate*'s closure."""
        return self._maintained(predicate).statistics()

    def snapshot(self) -> Database:
        """A functional copy of the working database.

        Shares the (immutable) relation objects but none of the caches,
        so later in-place maintenance of the working database can never
        be observed through it — this is what the serving layer
        publishes per generation.
        """
        return Database(dict(self.working.relations))

    def _maintained(self, predicate: Union[Predicate, str]
                    ) -> MaintainedClosure:
        if isinstance(predicate, Predicate):
            maintained = self.closures.get(predicate)
        else:
            maintained = next(
                (closure for key, closure in self.closures.items()
                 if key.name == predicate), None,
            )
        if maintained is None:
            raise SchemaError(f"No maintained closure for {predicate!r}")
        return maintained

    # ------------------------------------------------------------------

    def apply(self, inserts: Optional[Mapping[str, Iterable[Row]]] = None,
              deletes: Optional[Mapping[str, Iterable[Row]]] = None
              ) -> ChangeSet:
        """Commit one batch of base-relation mutations.

        Deletes are applied before inserts; a row both deleted and
        inserted in the same batch is a net no-op.  Mutating a
        rule-defined predicate is a :class:`~repro.exceptions.SchemaError`
        (derived relations change only through maintenance).  Returns
        the net :class:`ChangeSet`; the generation advances only when
        something actually changed.
        """
        staged = self._stage(inserts or {}, deletes or {})
        removed = {name: rows for name, (rows, _) in staged.items() if rows}
        added = {name: rows for name, (_, rows) in staged.items() if rows}
        if not removed and not added:
            return ChangeSet(self.generation)

        # The phase methods return the exact closure change sets, so
        # the net per-predicate delta is computed from those small sets
        # directly — never by diffing whole closure generations.
        left: dict[Predicate, frozenset[Row]] = {}
        entered: dict[Predicate, frozenset[Row]] = {}
        swap = self.working._replace_relation_unchecked
        if removed:
            pre = {name: self.working.relations[name] for name in removed}
            for name, rows in removed.items():
                old = pre[name]
                swap(Relation.from_canonical(name, old.arity,
                                             old.rows - rows))
            for predicate, maintained in self.closures.items():
                left[predicate] = maintained.apply_deletes(pre, removed)
        if added:
            pre = {}
            for name, rows in added.items():
                stored = self.working.relations.get(name)
                if stored is None:
                    arity = len(next(iter(rows)))
                    stored = Relation.empty(name, arity)
                pre[name] = stored
                swap(stored.extended_with(rows))
            for predicate, maintained in self.closures.items():
                entered[predicate] = maintained.apply_inserts(pre, added)
        predicate_deltas: dict[str, Delta] = {}
        for predicate in self.closures:
            gone = left.get(predicate, frozenset())
            came = entered.get(predicate, frozenset())
            delta = Delta(added=came - gone, removed=gone - came)
            if delta:
                predicate_deltas[predicate.name] = delta
        self.generation += 1
        relation_deltas = {
            name: Delta(added=staged[name][1], removed=staged[name][0])
            for name in staged
            if staged[name][0] or staged[name][1]
        }
        return ChangeSet(self.generation, relation_deltas, predicate_deltas)

    def _stage(self, inserts: Mapping[str, Iterable[Row]],
               deletes: Mapping[str, Iterable[Row]]
               ) -> dict[str, tuple[frozenset[Row], frozenset[Row]]]:
        return stage_batch(self.working.relations, self._idb_names,
                           inserts, deletes)

    def stage(self, inserts: Optional[Mapping[str, Iterable[Row]]] = None,
              deletes: Optional[Mapping[str, Iterable[Row]]] = None
              ) -> dict[str, tuple[frozenset[Row], frozenset[Row]]]:
        """Validate and net a batch without applying it: name → (removed, added).

        The durable commit path stages first so the WAL records exactly
        the netted batch (and skips logging no-ops), then applies; a
        batch that fails validation is never logged.
        """
        return self._stage(inserts or {}, deletes or {})
