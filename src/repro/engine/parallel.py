"""Per-iteration execution of compiled rule plans.

The fixpoint drivers (:mod:`repro.engine.seminaive`,
:mod:`repro.engine.naive`, and through them ``decomposed``/``separable``)
apply every rule of a stratum to the current delta once per iteration.
Those applications are mutually independent: each reads the immutable
EDB plus the iteration's delta and emits a multiset of head tuples, and
the driver merges the emissions afterwards.  Theorem 3.1 makes the
derivation/duplicate accounting of that merge order- and
partition-independent, so how an iteration is scheduled can change only
its seconds, never its counts.

Modes
-----

:class:`EvalConfig` selects a **mode** — how one rule application runs.
Every mode runs in-process, on the calling thread.

``rows`` / ``batch``
    The slot executor (:meth:`~repro.engine.plan.CompiledRule.execute`)
    and the column-oriented executor
    (:func:`repro.engine.vectorized.execute_batch`) run every plan
    through :meth:`Evaluator.execute_batch` and hand the driver
    collapsed ``(row, multiplicity)`` pairs
    (:func:`record_collapsed_productions` accounts them).
``interned``
    :class:`PackedClosure` keeps the whole fixpoint in packed integer
    ids and decodes once at the end.

The ``backend`` spellings ``threads`` and ``processes`` are accepted
and normalised to ``serial``: no pool ever beat the serial packed
closure, because the joins are pure Python under the GIL (numbers in
``src/repro/engine/README.md``).  This module keeps its name because
instrumentation patches :meth:`PackedClosure.freeze` by module path.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

from repro.datalog.terms import Constant
from repro.engine.plan import CompiledRule
from repro.engine.statistics import EvaluationStatistics
from repro.engine.vectorized import (
    InternedDeltaCache,
    decode_packed_rows,
    execute_batch,
    execute_interned_into,
    select_packed_specialization,
)
from repro.exceptions import EvaluationError
from repro.storage.database import Database
from repro.storage.domain import (
    Domain,
    InternedRelation,
    unpack_packed_columns,
)
from repro.storage.relation import Relation, Row, RowSetBuilder

#: The per-rule executors accepted by :class:`EvalConfig`: ``rows`` is
#: the slot executor (:meth:`~repro.engine.plan.CompiledRule.execute`),
#: ``batch`` the column-oriented executor
#: (:mod:`repro.engine.vectorized`).
EXECUTORS = ("rows", "batch")

#: The backend spellings accepted by :class:`EvalConfig`; every one of
#: them means ``serial`` (see the module docstring).
BACKENDS = ("serial", "threads", "processes")

#: The join-order planner spellings accepted by :class:`EvalConfig`;
#: every one of them means the greedy compile order (:mod:`repro.planner`).
PLANNERS = ("greedy", "costed", "adaptive")


@dataclass(frozen=True)
class EvalConfig:
    """How a fixpoint driver should execute each iteration's rule batch.

    An ``EvalConfig`` is accepted by ``seminaive_closure``,
    ``naive_closure``, ``decomposed_closure``, ``separable_evaluate`` and
    ``solve_linear_recursion`` and threaded down to the per-rule
    executor.  It selects a *mode* — how one rule application runs:
    ``executor="rows"`` (the slot executor, one row at a time),
    ``executor="batch"`` (the column-oriented executor of
    :mod:`repro.engine.vectorized`), or ``executor="batch", intern=True``
    (its *int specialisation*: values are dictionary-encoded into dense
    ids through the database's :class:`~repro.storage.domain.Domain` and
    the whole fixpoint runs on packed integers, :class:`PackedClosure`;
    ``executor="interned"`` is sugar for the pair).

    Every mode runs serially; ``backend`` and ``max_workers`` are kept
    as accepted spellings.  Result relations and derivation/duplicate
    statistics are identical for every mode.
    """

    #: One of :data:`EXECUTORS`.
    executor: str = "rows"
    #: Always ``"serial"``; ``"threads"`` and ``"processes"`` are
    #: accepted spellings, normalised to it.
    backend: str = "serial"
    #: Accepted (at least 1) and ignored: there is no worker pool.
    max_workers: Optional[int] = None
    #: Run the batch executor on interned ids (requires ``executor="batch"``).
    intern: bool = False
    #: Wall-clock budget (seconds) for the whole evaluation, every
    #: phase of a multi-phase driver included; checked at every
    #: iteration start.  ``None`` disables it.
    deadline: Optional[float] = None
    #: Serving-layer knob (:mod:`repro.serve`): maintain materialised
    #: closures incrementally under mutations (counting + DRed,
    #: :mod:`repro.ivm`) instead of recomputing from scratch on every
    #: commit.  Ignored by the one-shot fixpoint drivers — a single cold
    #: evaluation has nothing to maintain.
    maintain: bool = False
    #: Serving-layer knob (:mod:`repro.serve`): persist commits through
    #: the write-ahead log and checkpoints of :mod:`repro.durability`.
    #: Implies maintained closures (durable recovery restores the
    #: Theorem-3.1 ``(T, q, supp)`` state, which only the maintaining
    #: engine carries); the serving layer requires a storage path
    #: alongside this flag.  Ignored by the one-shot fixpoint drivers.
    durable: bool = False
    #: Join-order planner (:mod:`repro.planner`): always ``"greedy"``,
    #: the compile-time order of :mod:`repro.engine.plan`.  ``"costed"``
    #: and ``"adaptive"`` are accepted spellings, normalised to it.
    planner: str = "greedy"

    def __post_init__(self) -> None:
        if self.executor == "interned":
            # Sugar: the int specialisation is a mode of the batch
            # executor, not a third pipeline.
            object.__setattr__(self, "executor", "batch")
            object.__setattr__(self, "intern", True)
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"Unknown executor {self.executor!r}; expected one of "
                f"{EXECUTORS}"
            )
        if self.backend not in BACKENDS:
            raise ValueError(
                f"Unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        # Sugar, like ``planner`` below: serial is the only backend.
        object.__setattr__(self, "backend", "serial")
        if self.intern and self.executor != "batch":
            raise ValueError(
                "intern=True requires the batch executor "
                "(EvalConfig(executor='batch', intern=True))"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        # A range test that NaN fails: it compares false both ways, so a
        # bare ``x <= 0`` check let it through and disabled the limit.
        if self.deadline is not None and not (0 < self.deadline < math.inf):
            raise ValueError(f"deadline must be positive and finite "
                             f"(or None), got {self.deadline!r}")
        if self.planner not in PLANNERS:
            raise ValueError(
                f"Unknown planner {self.planner!r}; expected one of {PLANNERS}"
            )
        # Sugar, like ``executor="interned"``: greedy is the only planner.
        object.__setattr__(self, "planner", "greedy")
        if self.durable and not self.maintain:
            raise ValueError(
                "durable=True requires maintain=True: durable recovery "
                "restores the maintained (T, q, supp) state, which the "
                "recompute-per-commit baseline does not carry"
            )

    # ------------------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str, **overrides: Any) -> "EvalConfig":
        """Build a config from a compact spec string.

        The canonical single-knob constructor the serving surface uses:
        a spec is dash-separated tokens — a *mode* (``rows``, ``batch``,
        ``interned``), a *backend* (``serial``, ``threads``,
        ``processes``, all meaning serial), a *planner* (``greedy``,
        ``costed``, ``adaptive``, all meaning greedy) and/or the flags
        ``maintain`` (incremental view maintenance in the serving layer)
        and ``durable``, in any order; omitted parts keep their
        defaults.  Examples::

            EvalConfig.from_spec("interned")
            EvalConfig.from_spec("interned-maintain")
            EvalConfig.from_spec("batch")
            EvalConfig.from_spec("")                 # the default config

        Keyword *overrides* are passed through to the constructor for
        the long-tail knobs (``deadline=...``).
        """
        modes = {"rows": ("rows", False), "batch": ("batch", False),
                 "interned": ("batch", True)}
        executor: Optional[str] = None
        intern: Optional[bool] = None
        backend: Optional[str] = None
        maintain: Optional[bool] = None
        durable: Optional[bool] = None
        planner: Optional[str] = None
        for token in filter(None, (part.strip() for part in spec.split("-"))):
            if token in modes:
                if executor is not None:
                    raise ValueError(f"Mode given twice in spec {spec!r}")
                executor, intern = modes[token]
            elif token in BACKENDS:
                if backend is not None:
                    raise ValueError(f"Backend given twice in spec {spec!r}")
                backend = token
            elif token in PLANNERS:
                if planner is not None:
                    raise ValueError(f"Planner given twice in spec {spec!r}")
                planner = token
            elif token == "maintain":
                if maintain is not None:
                    raise ValueError(f"'maintain' given twice in spec {spec!r}")
                maintain = True
            elif token == "durable":
                if durable is not None:
                    raise ValueError(f"'durable' given twice in spec {spec!r}")
                durable = True
                # Durable serving recovers maintained (T, q, supp)
                # state, so the flag implies maintenance unless the
                # caller explicitly contradicts it (rejected below).
                if maintain is None:
                    maintain = True
            else:
                raise ValueError(
                    f"Unknown token {token!r} in spec {spec!r}; expected a "
                    f"mode ({', '.join(modes)}), a backend "
                    f"({', '.join(BACKENDS)}), a planner "
                    f"({', '.join(PLANNERS)}), 'maintain' and/or "
                    f"'durable', dash-separated"
                )
        for name, value in (("executor", executor), ("backend", backend),
                            ("intern", intern), ("maintain", maintain),
                            ("durable", durable), ("planner", planner)):
            if value is not None:
                if name in overrides and overrides[name] != value:
                    raise ValueError(
                        f"{name} given twice: {value!r} from spec {spec!r} "
                        f"and {overrides[name]!r} as a keyword"
                    )
                overrides[name] = value
        return cls(**overrides)

    def spec(self) -> str:
        """The canonical spec string of this config (mode-backend[-...])."""
        base = f"{self.mode()}-{self.backend}"
        if self.durable:
            return f"{base}-durable"
        return f"{base}-maintain" if self.maintain else base

    def batched(self) -> bool:
        """True if rule applications run on the column-oriented executor."""
        return self.executor == "batch"

    def interned(self) -> bool:
        """True if the batch executor runs its int specialisation."""
        return self.intern

    def mode(self) -> str:
        """The per-rule execution mode: ``rows``, ``batch`` or ``interned``."""
        if self.intern:
            return "interned"
        return self.executor


#: The default configuration: the serial compiled path.
SERIAL_CONFIG = EvalConfig()


def _collapse(emissions: list[Row]) -> list[tuple[Row, int]]:
    """Collapse an emission multiset into (row, multiplicity) pairs.

    Pair order is the order of first emission, so the collapsed form is
    deterministic given the plan; duplicate accounting over it is exactly
    equivalent to per-emission accounting (a tuple emitted ``k`` times
    yields ``k`` derivations, of which ``k`` or ``k - 1`` are duplicates
    depending only on whether the tuple was already known).
    """
    return list(Counter(emissions).items())


# ----------------------------------------------------------------------
# Packing
# ----------------------------------------------------------------------


def intern_program_constants(plans: Sequence[CompiledRule],
                             domain: Domain) -> None:
    """Intern every constant of the plans' rules into *domain*.

    Run before freezing a packing base: with the EDB and the rule
    constants interned, every id a derivation can emit is already known
    to the domain, so the base never has to grow mid-closure.
    """
    for plan in plans:
        for atom in (plan.rule.head, *plan.rule.body):
            for term in atom.arguments:
                if isinstance(term, Constant):
                    domain.intern(term.value)


# ----------------------------------------------------------------------
# The evaluator
# ----------------------------------------------------------------------


class Evaluator:
    """Executes per-iteration rule batches under an :class:`EvalConfig`.

    ``rows``/``batch`` drivers call :meth:`execute_batch` once per
    iteration; interned drivers take a :class:`PackedClosure` from
    :meth:`packed_closure` and step that instead.  One evaluator serves
    any number of closures over the same plans and database.

    *started* is the :func:`time.monotonic` instant the evaluation's
    ``deadline`` counts from; a multi-phase driver passes the instant
    its own call began, so the budget spans every phase.  ``None``
    starts the clock here.
    """

    def __init__(self, plans: Sequence[CompiledRule], database: Database,
                 config: Optional[EvalConfig] = None,
                 started: Optional[float] = None):
        self.plans = list(plans)
        self.database = database
        self.config = config if config is not None else SERIAL_CONFIG
        self.started = time.monotonic() if started is None else started
        #: Iterations started (1-based), for the deadline message.
        self.iteration = 0

    def start_iteration(self) -> None:
        """Mark one driver iteration; raise once the deadline is spent."""
        self.iteration += 1
        deadline = self.config.deadline
        if deadline is not None:
            elapsed = time.monotonic() - self.started
            if elapsed > deadline:
                raise EvaluationError(
                    f"evaluation deadline of {deadline}s exceeded after "
                    f"{elapsed:.3f}s ({self.iteration} iterations started)"
                )

    # ------------------------------------------------------------------

    def execute_batch(self, overrides: Mapping[str, Relation],
                      statistics: EvaluationStatistics) -> list[tuple[Row, int]]:
        """Apply every plan to *overrides*; return collapsed emissions.

        The ``rows``/``batch`` iteration (also what
        :mod:`repro.ivm.maintain` drives its delta rules with).  The
        returned list holds ``(row, multiplicity)`` pairs — each plan's
        emission multiset collapsed (:func:`_collapse`) — in plan order.
        Duplicate accounting over the pairs is exactly equivalent to
        per-emission accounting (see
        :func:`record_collapsed_productions`).  ``statistics`` receives
        one rule application per plan and the join counters.
        """
        self.start_iteration()
        statistics.rule_applications += len(self.plans)
        counters = statistics.joins
        collapsed: list[tuple[Row, int]] = []
        if self.config.batched():
            for plan in self.plans:
                collapsed.extend(execute_batch(plan, self.database, overrides,
                                               counters=counters))
        else:
            for plan in self.plans:
                collapsed.extend(_collapse(plan.execute(
                    self.database, overrides, counters=counters)))
        return collapsed

    def packed_closure(self, initial: Relation) -> Optional["PackedClosure"]:
        """A packed-id-space closure, for every interned configuration.

        ``None`` for the ``rows``/``batch`` modes, whose drivers loop
        over :meth:`execute_batch`.
        """
        if not self.config.interned():
            return None
        return PackedClosure(self, initial)


class PackedClosure:
    """A fixpoint closure kept entirely in packed-id space.

    With interned execution the whole driver loop runs on packed
    integers: the accumulated result is a ``set[int]``, the
    per-iteration delta is a set of packed rows, and the executors emit
    packed values directly
    (:func:`repro.engine.vectorized.execute_interned_into` with a frozen
    base).  Rows are decoded back to values exactly once, at
    :meth:`freeze` — per-iteration decode/re-intern round trips
    disappear, which is where the interned series' speedup over the
    value-level batch series comes from.

    Derivation/duplicate accounting is Counter-free: an iteration
    yields its emission *total* and its *distinct* packed set, and
    Theorem 3.1's duplicates are ``total - |fresh|`` with
    ``fresh = distinct - known`` — exactly the bulk form of
    :func:`record_collapsed_productions` (packing is injective, so
    counting packed ints equals counting rows).  Both are additive over
    any split of the delta (totals sum, distinct sets union), which is
    why no schedule of an iteration can move the counts.

    The packing base is frozen at construction, after interning the full
    EDB, the program constants and the initial relation — every value a
    derivation can produce.
    """

    def __init__(self, evaluator: Evaluator, initial: Relation):
        database = evaluator.database
        self.database = database
        self.plans = evaluator.plans
        self.evaluator = evaluator
        domain = database.domain()
        self.domain = domain
        database.intern_all()
        intern_program_constants(self.plans, domain)
        intern_row = domain.intern_row
        id_rows = [intern_row(row) for row in initial.rows]
        self.name = initial.name
        self.arity = initial.arity
        base = max(1, len(domain))
        self.base_k = base
        known = set()
        for ids in id_rows:
            packed = 0
            for ident in ids:
                packed = packed * base + ident
            known.add(packed)
        self.known: set[int] = known
        self._delta_packed: set[int] = set(known)
        self._deltas = InternedDeltaCache(domain)
        self._total_view: Optional[InternedRelation] = None
        #: Per-plan grouped-join specialisation — the two-scan binary
        #: shape and the 3-atom chain shapes (any head arity), selected
        #: by :func:`repro.engine.vectorized.select_packed_specialization`
        #: — with per-plan persistent groups for the naive driver's
        #: incrementally maintained total.
        self._fast: list[Optional[Any]] = [
            select_packed_specialization(plan, self.name, self.arity,
                                         self.base_k)
            for plan in self.plans
        ]
        self._fast_groups: list[Optional[dict[int, list[int]]]] = (
            [None] * len(self.plans)
        )

    # ------------------------------------------------------------------

    def delta_size(self) -> int:
        """Rows in the current delta (0 once the fixpoint is reached)."""
        return len(self._delta_packed)

    def _run(self, packed_rows: set[int], n_rows: int, naive: bool,
             statistics: EvaluationStatistics) -> tuple[int, set[int]]:
        """All plans against the packed rows; returns (total, distinct).

        With *naive* the rows are the accumulated total, whose interned
        view and grouped-join mappings persist across iterations
        (:meth:`step_naive` extends them); a semi-naive delta gets
        ephemeral ones.
        """
        self.evaluator.start_iteration()
        statistics.rule_applications += len(self.plans)
        counters = statistics.joins
        total = 0
        distinct: set[int] = set()
        view: Optional[InternedRelation] = None
        for i, plan in enumerate(self.plans):
            fast = self._fast[i]
            if fast is not None:
                if naive:
                    groups = self._fast_groups[i]
                    if groups is None:
                        groups = fast.build_groups(packed_rows, self.base_k)
                        self._fast_groups[i] = groups
                else:
                    groups = fast.build_groups(packed_rows, self.base_k)
                total += fast.run(groups, self.database, distinct, counters,
                                  n_rows)
                continue
            if view is None and naive:
                view = self._total_view
            if view is None:
                view = InternedRelation(
                    self.name, self.arity,
                    self._unpack_columns(packed_rows), n_rows,
                )
                if naive:
                    self._total_view = view
            emitted, _, _ = execute_interned_into(
                plan, self.database, distinct, {self.name: view}, counters,
                self._deltas, self.base_k,
            )
            total += emitted
        return total, distinct

    def _unpack_columns(self, packed_rows: Any) -> tuple[list[int], ...]:
        return unpack_packed_columns(packed_rows, self.base_k, self.arity)

    def step_seminaive(self, statistics: EvaluationStatistics) -> int:
        """One semi-naive iteration against the current delta."""
        delta = self._delta_packed
        total, distinct = self._run(delta, len(delta), False, statistics)
        fresh = distinct - self.known
        statistics.derivations += total
        statistics.duplicates += total - len(fresh)
        self.known |= fresh
        self._delta_packed = fresh
        return len(fresh)

    def step_naive(self, statistics: EvaluationStatistics) -> int:
        """One naive iteration against the accumulated total.

        The total's structures are append-only: its interned view, any
        int indexes over it, and the grouped-join mappings of the fast
        path are all maintained incrementally from the new rows.
        """
        total, distinct = self._run(self.known, len(self.known), True,
                                    statistics)
        fresh = distinct - self.known
        statistics.derivations += total
        statistics.duplicates += total - len(fresh)
        if fresh:
            self.known |= fresh
            view = self._total_view
            if view is not None:
                appended = self._unpack_columns(fresh)
                for column, extra in zip(view.columns, appended):
                    column.extend(extra)
                view.length += len(fresh)
            for i, fast in enumerate(self._fast):
                groups = self._fast_groups[i]
                if fast is not None and groups is not None:
                    fast.build_groups(fresh, self.base_k, groups)
        return len(fresh)

    def freeze(self) -> Relation:
        """Decode the accumulated packed rows into a relation (once)."""
        rows = decode_packed_rows(self.known, self.base_k, self.arity,
                                  self.domain)
        return Relation.from_canonical(self.name, self.arity, rows)


def record_collapsed_productions(pairs: Sequence[tuple[Row, int]],
                                 known: RowSetBuilder,
                                 statistics: EvaluationStatistics
                                 ) -> set[Row]:
    """Account one iteration's collapsed emissions; return the new tuples.

    Equivalent to calling
    :meth:`~repro.engine.statistics.EvaluationStatistics.record_production`
    once per underlying emission: a tuple emitted ``k`` times this
    iteration contributes ``k`` derivations, all of them duplicates when
    the tuple was already known (present in *known*, the driver's
    accumulated ``RowSetBuilder``), and ``k - 1`` duplicates otherwise.

    Implemented with bulk set operations: across the whole batch, the
    duplicates are exactly ``total emissions - |fresh distinct rows|``
    (every emission except the first of each fresh row re-derives a
    known tuple), so no per-pair membership loop is needed.
    """
    total = 0
    for _, count in pairs:
        total += count
    statistics.derivations += total
    fresh = {row for row, _ in pairs} - known.rows
    statistics.duplicates += total - len(fresh)
    return fresh
