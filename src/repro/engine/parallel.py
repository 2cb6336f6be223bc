"""Per-iteration execution of compiled rule plans, serial and parallel.

The fixpoint drivers (:mod:`repro.engine.seminaive`,
:mod:`repro.engine.naive`, and through them ``decomposed``/``separable``)
apply every rule of a stratum to the current delta once per iteration.
Those applications are mutually independent: each reads the immutable
EDB plus the iteration's delta and emits a multiset of head tuples, and
the driver merges the emissions afterwards.  Theorem 3.1 makes the
derivation/duplicate accounting of that merge order- and
partition-independent, which is the one fact every path here relies on.

Modes and backends
------------------

:class:`EvalConfig` selects a **mode** — how one rule application runs —
and a **backend** — where an iteration's applications run.

``rows`` / ``batch`` (serial only)
    The slot executor (:meth:`~repro.engine.plan.CompiledRule.execute`)
    and the column-oriented executor
    (:func:`repro.engine.vectorized.execute_batch`) run every plan
    in-process through :meth:`ParallelEvaluator.execute_batch` and hand
    the driver collapsed ``(row, multiplicity)`` pairs
    (:func:`record_collapsed_productions` accounts them).  They have no
    parallel form: shipping value rows to workers and merging
    ``(row, multiplicity)`` pairs back lost to the same executor run
    serially, and to the packed exchange on the same backend, on every
    measured workload (numbers in ``src/repro/engine/README.md``), so a
    parallel backend without ``intern`` is rejected rather than run on
    a slower engine.
``interned`` (``serial`` | ``threads``)
    :class:`PackedClosure` keeps the whole fixpoint in packed integer
    ids and decodes once at the end.  This is the only thing "a
    parallel backend" means.  ``processes`` is an accepted spelling of
    ``threads``: there is no process pool, so
    :meth:`ParallelEvaluator.__enter__` runs it on threads and records
    one ``processes->threads`` degradation on the
    :class:`~repro.engine.statistics.HealthReport`.

The packed-id exchange
----------------------

A parallel iteration splits the delta across workers: plans that scan
the recursive predicate exactly once run over one part each (every
derivation consumes exactly one delta row, so the emission multiset of
the whole delta is the disjoint union of the parts'); any other plan
runs once, unpartitioned.  The Theorem-3.1 merge is Counter-free: each
worker reports its emission *total* and merges its *distinct* packed
set into a :class:`StripedPackedSink`; at the barrier the totals sum,
the sink drains, and duplicates are ``total - |fresh|`` — the same
accounting the serial packed path uses, so results and
derivation/duplicate statistics are bit-identical on every backend.

Workers are a :class:`~concurrent.futures.ThreadPoolExecutor` sharing
the parent database, domain and interned index caches (immutable reads;
the caches take a lock).  On GIL-bound CPython builds pure-Python join
work does not speed up, so this backend is mainly a ready path for
free-threaded builds.  An exception raised by a task propagates to the
caller unchanged.
"""

from __future__ import annotations

import math
import os
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

from repro.datalog.terms import Constant
from repro.engine.plan import CompiledRule
from repro.engine.statistics import (
    EvaluationStatistics,
    HealthReport,
    JoinCounters,
)
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

#: The scheduling backends accepted by :class:`EvalConfig`;
#: ``processes`` is a spelling of ``threads`` (see the module docstring).
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
    executor.  It selects

    * a *mode* — how one rule application runs: ``executor="rows"`` (the
      slot executor, one row at a time), ``executor="batch"`` (the
      column-oriented executor of :mod:`repro.engine.vectorized`), or
      ``executor="batch", intern=True`` (its *int specialisation*:
      values are dictionary-encoded into dense ids through the
      database's :class:`~repro.storage.domain.Domain` and the whole
      fixpoint runs on packed integers, :class:`PackedClosure`;
      ``executor="interned"`` is sugar for the pair);
    * a *backend* — where an iteration's rule applications run:
      ``"serial"``, or, for the interned mode only, ``"threads"`` with
      the delta partitioned across workers (``"processes"`` is accepted
      and runs on threads).

    The default (``rows`` on ``serial``) is exactly the single-threaded
    compiled path.  Result relations and derivation/duplicate statistics
    are identical for every valid combination; ``rows``/``batch`` on a
    parallel backend is rejected (see the module docstring).
    """

    #: One of :data:`EXECUTORS`.
    executor: str = "rows"
    #: One of :data:`BACKENDS`; the parallel ones require ``intern``.
    backend: str = "serial"
    #: Worker count for the parallel backends; ``None`` means the CPUs
    #: this process may run on.
    max_workers: Optional[int] = None
    #: Hash partitions per partitionable delta; ``None`` tracks the
    #: resolved worker count.
    partitions: Optional[int] = None
    #: Deltas smaller than this are never split (task overhead dominates).
    min_partition_rows: int = 2
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
            hint = (f" ({self.executor!r} is a backend: spell it "
                    f"EvalConfig.from_spec('interned-{self.executor}'))"
                    if self.executor in BACKENDS else "")
            raise ValueError(
                f"Unknown executor {self.executor!r}; expected one of "
                f"{EXECUTORS}{hint}"
            )
        if self.backend not in BACKENDS:
            raise ValueError(
                f"Unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if self.intern and self.executor != "batch":
            raise ValueError(
                "intern=True requires the batch executor "
                "(EvalConfig(executor='batch', intern=True))"
            )
        if self.backend != "serial" and not self.intern:
            raise ValueError(
                f"The {self.backend!r} backend runs the packed-id closure "
                f"only and {self.executor!r} is serial-only; use "
                f"EvalConfig.from_spec('interned-{self.backend}') "
                f"(executor='batch', intern=True, backend={self.backend!r})"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if self.partitions is not None and self.partitions < 1:
            raise ValueError("partitions must be at least 1")
        if self.min_partition_rows < 2:
            raise ValueError("min_partition_rows must be at least 2")
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
        ``interned``), a *backend* (``serial``, ``threads``, or
        ``processes``, a spelling of ``threads``), a *planner*
        (``greedy``, ``costed``, ``adaptive``, all meaning greedy)
        and/or the flag ``maintain``
        (incremental view maintenance in the serving layer) in any
        order; omitted parts keep their defaults.  Examples::

            EvalConfig.from_spec("interned-threads")
            EvalConfig.from_spec("interned-threads-maintain")
            EvalConfig.from_spec("batch")
            EvalConfig.from_spec("interned")
            EvalConfig.from_spec("")                 # the default config

        A parallel backend needs the ``interned`` mode; ``rows-threads``
        and the like raise, naming the ``interned-<backend>`` spelling.

        Keyword *overrides* are passed through to the constructor for
        the long-tail knobs (``max_workers=...``, ``deadline=...``).
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

    def is_parallel(self) -> bool:
        """True if a worker pool is required."""
        return self.backend != "serial"

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

    def resolved_workers(self) -> int:
        """The effective worker count.

        Defaults to the CPUs this process may run on — in a cgroup- or
        affinity-limited container ``os.cpu_count()`` is the host's
        count, far more workers than can run.
        """
        if self.max_workers is not None:
            return self.max_workers
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1

    def resolved_partitions(self) -> int:
        """The effective number of delta partitions per partitionable rule."""
        if self.partitions is not None:
            return self.partitions
        return self.resolved_workers()


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
# The packed exchange
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


class StripedPackedSink:
    """The packed closure's shared fresh-row accumulator, striped.

    Thread-backend packed tasks merge their distinct packed emissions
    into this structure instead of shipping private sets back for a
    serial union: rows are bucketed by ``packed % stripes`` and each
    stripe has its own lock, so merges from different workers contend
    only when they land on the same stripe.  ``drain()`` is called by
    the parent at the iteration barrier, once every task has finished;
    the union it returns is exactly the distinct emission set of the
    iteration (stripes are disjoint by construction).  One sink serves
    one iteration.  On GIL-bound builds the striping is
    overhead-neutral; on free-threaded builds it is what keeps the merge
    off the critical path.
    """

    __slots__ = ("_stripes", "_locks", "_n")

    def __init__(self, stripes: int):
        self._n = max(1, stripes)
        self._stripes: list[set[int]] = [set() for _ in range(self._n)]
        self._locks = [threading.Lock() for _ in range(self._n)]

    def merge(self, rows: set[int]) -> None:
        """Fold one task's distinct packed rows into the stripes."""
        n = self._n
        if n == 1:
            with self._locks[0]:
                self._stripes[0] |= rows
            return
        buckets: list[list[int]] = [[] for _ in range(n)]
        for packed in rows:
            buckets[packed % n].append(packed)
        for index, bucket in enumerate(buckets):
            if bucket:
                with self._locks[index]:
                    self._stripes[index].update(bucket)

    def drain(self) -> set[int]:
        """The union of all stripes (barrier-side, after every merge)."""
        return set().union(*self._stripes)


# ----------------------------------------------------------------------
# The evaluator
# ----------------------------------------------------------------------


class ParallelEvaluator:
    """Executes per-iteration rule batches under an :class:`EvalConfig`.

    Serial ``rows``/``batch`` drivers call :meth:`execute_batch` once
    per iteration; interned drivers take a :class:`PackedClosure` from
    :meth:`packed_closure` and step that instead.  A context manager:
    the thread pool (if the backend has one) is created on
    ``__enter__`` and lives for the whole closure.

    *started* is the :func:`time.monotonic` instant the evaluation's
    ``deadline`` counts from; a multi-phase driver passes the instant
    its own call began, so the budget spans every phase.  ``None``
    starts the clock here.
    """

    def __init__(self, plans: Sequence[CompiledRule], database: Database,
                 config: Optional[EvalConfig] = None,
                 health: Optional[HealthReport] = None,
                 started: Optional[float] = None):
        self.plans = list(plans)
        self.database = database
        self.config = config if config is not None else SERIAL_CONFIG
        #: Where degradations land, usually the driver's
        #: ``statistics.health``.
        self.health = health if health is not None else HealthReport()
        #: The backend iterations run on: the configured one, except
        #: that ``processes`` runs on ``threads`` (see ``__enter__``).
        self.backend = self.config.backend
        self.started = time.monotonic() if started is None else started
        #: Iterations started (1-based), for the deadline message.
        self.iteration = 0
        self._pool: Optional[ThreadPoolExecutor] = None

    # ------------------------------------------------------------------

    def __enter__(self) -> "ParallelEvaluator":
        if self.backend == "processes":
            # No process pool exists: like any backend that cannot run,
            # the spelling steps down a rung and says so.
            self.backend = "threads"
            self.health.degradations.append("processes->threads")
        self.health.backend = self.backend
        if self.backend == "threads":
            self._pool = ThreadPoolExecutor(
                max_workers=self.config.resolved_workers(),
                thread_name_prefix="repro-eval",
            )
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut the thread pool down (idempotent)."""
        if self._pool is not None:
            # After a task raised, its siblings still queued never start.
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

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
        """Apply every plan to *overrides* in-process; return collapsed emissions.

        The serial ``rows``/``batch`` iteration (also what
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

        The interned drivers keep the whole fixpoint in packed integers
        and decode once at the end, on every backend; on ``threads`` the
        workers share the parent's packed accumulator through a striped
        sink.  ``None`` for the ``rows``/``batch`` modes, whose drivers
        loop over :meth:`execute_batch`.
        """
        if not self.config.interned():
            return None
        return PackedClosure(self, initial)


class PackedClosure:
    """A fixpoint closure kept entirely in packed-id space.

    With interned execution — on *any* backend — the whole driver loop
    runs on packed integers: the accumulated result is a ``set[int]``,
    the per-iteration delta is a set of packed rows, and the executors
    emit packed values directly
    (:func:`repro.engine.vectorized.execute_interned_into` with a frozen
    base).  Rows are decoded back to values exactly once, at
    :meth:`freeze` — per-iteration decode/re-intern round trips
    disappear, which is where the interned series' speedup over the
    value-level batch series comes from.

    The ``threads`` backend runs the same iteration with the delta split
    across workers (plans that scan the recursive predicate exactly once
    partition; any other plan runs unpartitioned, once); tasks share the
    parent database, domain and interned index caches directly and
    merge their distinct packed emissions into a
    :class:`StripedPackedSink`.

    Derivation/duplicate accounting is Counter-free and
    order-independent on every backend: each task reports its emission
    *total* and its *distinct* packed set; at the iteration barrier the
    totals sum, the distinct sets union, and Theorem 3.1's duplicates
    are ``total - |fresh|`` with ``fresh = distinct - known`` — exactly
    the bulk form of :func:`record_collapsed_productions` (packing is
    injective, so counting packed ints equals counting rows).

    The packing base is frozen at construction, after interning the full
    EDB, the program constants and the initial relation — every value a
    derivation can produce.
    """

    def __init__(self, evaluator: "ParallelEvaluator", initial: Relation):
        database = evaluator.database
        self.database = database
        self.plans = evaluator.plans
        self.evaluator = evaluator
        config = evaluator.config
        self.partitions = config.resolved_partitions()
        self.min_partition_rows = config.min_partition_rows
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
        #: — with per-plan persistent groups for the serial naive
        #: driver's incrementally maintained total.
        self._fast: list[Optional[Any]] = [
            select_packed_specialization(plan, self.name, self.arity,
                                         self.base_k)
            for plan in self.plans
        ]
        self._fast_groups: list[Optional[dict[int, list[int]]]] = (
            [None] * len(self.plans)
        )
        #: Plans that scan the recursive predicate exactly once can have
        #: the delta row-partitioned; every other plan runs once, whole.
        self._splittable = tuple(
            plan.scan_relation_names().count(self.name) == 1
            for plan in self.plans
        )
        #: With no splittable plan at all there is no parallelism to
        #: win — every iteration would hand the whole delta to a single
        #: worker task — so such closures stay on the in-process path.
        self._any_splittable = any(self._splittable)
        self._split_plans = tuple(
            i for i, ok in enumerate(self._splittable) if ok
        )
        self._solo_plans = tuple(
            i for i, ok in enumerate(self._splittable) if not ok
        )

    # ------------------------------------------------------------------

    @property
    def backend(self) -> str:
        """The backend iterations run on (``processes`` reads ``threads``)."""
        return self.evaluator.backend

    def delta_size(self) -> int:
        """Rows in the current delta (0 once the fixpoint is reached)."""
        return len(self._delta_packed)

    def _parallel_ready(self, n_rows: int) -> bool:
        """Whether this iteration's rows are worth farming out."""
        return (self.evaluator._pool is not None and self.partitions > 1
                and self._any_splittable
                and n_rows >= self.min_partition_rows)

    def _run(self, packed_rows: set[int], n_rows: int, naive: bool,
             statistics: EvaluationStatistics) -> tuple[int, set[int]]:
        """All plans against the packed rows; returns (total, distinct)."""
        self.evaluator.start_iteration()
        statistics.rule_applications += len(self.plans)
        if not self._parallel_ready(n_rows):
            return self._run_serial(packed_rows, n_rows, naive,
                                    statistics.joins)
        return self._run_threads(packed_rows, statistics.joins)

    def _run_serial(self, packed_rows: set[int], n_rows: int, naive: bool,
                    counters: JoinCounters) -> tuple[int, set[int]]:
        """The in-process iteration (also the small-delta fallback).

        Persistent per-closure structures (the naive total's interned
        view and grouped-join mappings) are only maintained on the
        serial backend — a parallel backend reaching this path for a
        below-threshold delta uses ephemeral views, since most of its
        iterations never update the persistent ones.
        """
        persist = naive and self.backend == "serial"
        total = 0
        distinct: set[int] = set()
        view: Optional[InternedRelation] = None
        for i, plan in enumerate(self.plans):
            fast = self._fast[i]
            if fast is not None:
                if persist:
                    groups = self._fast_groups[i]
                    if groups is None:
                        groups = fast.build_groups(packed_rows, self.base_k)
                        self._fast_groups[i] = groups
                else:
                    groups = fast.build_groups(packed_rows, self.base_k)
                total += fast.run(groups, self.database, distinct, counters,
                                  n_rows)
                continue
            if view is None and persist:
                view = self._total_view
            if view is None:
                view = InternedRelation(
                    self.name, self.arity,
                    self._unpack_columns(packed_rows), n_rows,
                )
                if persist:
                    self._total_view = view
            emitted, _, _ = execute_interned_into(
                plan, self.database, distinct, {self.name: view}, counters,
                self._deltas, self.base_k,
            )
            total += emitted
        return total, distinct

    # -- threads -------------------------------------------------------

    def _run_threads(self, packed_rows: set[int],
                     counters: JoinCounters) -> tuple[int, set[int]]:
        """One iteration on the thread pool, via a striped sink.

        The delta is partitioned by ``packed % partitions`` (stable
        across runs — packed values are ints), each partition task runs
        every partitionable plan over its part against the shared parent
        database, and non-partitionable plans run once, in their own
        task over the full delta.  Workers push distinct emissions into
        the shared :class:`StripedPackedSink`; per-task totals and
        counters return through the futures and reduce at the barrier.
        """
        pool = self.evaluator._pool
        assert pool is not None
        sink = StripedPackedSink(self.evaluator.config.resolved_workers())
        work: list[tuple[Any, tuple[int, ...]]] = []
        if self._split_plans:
            parts: list[list[int]] = [[] for _ in range(self.partitions)]
            for packed in packed_rows:
                parts[packed % self.partitions].append(packed)
            work.extend((part, self._split_plans) for part in parts if part)
        if self._solo_plans:
            work.append((packed_rows, self._solo_plans))
        futures = [pool.submit(self._packed_thread_task, rows, plan_indices,
                               sink)
                   for rows, plan_indices in work]
        total = 0
        for task_total, task_counters in [f.result() for f in futures]:
            total += task_total
            counters.merge(task_counters)
        return total, sink.drain()

    def _packed_thread_task(self, rows: Any, plan_indices: tuple[int, ...],
                            sink: StripedPackedSink
                            ) -> tuple[int, JoinCounters]:
        """Run packed plans over one delta part; emissions go to *sink*.

        Each plan takes its grouped specialisation where the shape
        allows and the generic interned pipeline otherwise.  Returns the
        emission total (the multiset size) and the task's join counters.
        """
        counters = JoinCounters()
        distinct: set[int] = set()
        view: Optional[InternedRelation] = None
        deltas: Optional[InternedDeltaCache] = None
        total = 0
        for index in plan_indices:
            fast = self._fast[index]
            if fast is not None:
                groups = fast.build_groups(rows, self.base_k)
                total += fast.run(groups, self.database, distinct, counters,
                                  len(rows))
                continue
            if view is None:
                view = InternedRelation(self.name, self.arity,
                                        self._unpack_columns(rows), len(rows))
                deltas = InternedDeltaCache(self.domain)
            emitted, _, _ = execute_interned_into(
                self.plans[index], self.database, distinct, {self.name: view},
                counters, deltas, self.base_k,
            )
            total += emitted
        sink.merge(distinct)
        return total, counters

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
