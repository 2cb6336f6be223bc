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
``interned`` (``serial`` | ``threads`` | ``processes``)
    :class:`PackedClosure` keeps the whole fixpoint in packed integer
    ids and decodes once at the end.  This is the only thing "a
    parallel backend" means.

The packed-id exchange
----------------------

A parallel iteration splits the delta across workers: plans that scan
the recursive predicate exactly once run over one part each (every
derivation consumes exactly one delta row, so the emission multiset of
the whole delta is the disjoint union of the parts'); any other plan
runs once, unpartitioned.  The Theorem-3.1 merge is Counter-free: each
worker reports its emission *total* and its *distinct* packed set, and
at the barrier the totals sum, the distinct sets union, and duplicates
are ``total - |fresh|`` — the same accounting the serial packed path
uses, so results and derivation/duplicate statistics are bit-identical
on every backend.

``threads``
    A :class:`~concurrent.futures.ThreadPoolExecutor` sharing the parent
    database, domain and interned index caches (immutable reads; the
    caches take a lock); workers merge their distinct rows into a shared
    :class:`StripedPackedSink` as they finish.  On GIL-bound CPython
    builds pure-Python join work does not speed up, so this backend is
    mainly a ready path for free-threaded builds and the middle rung of
    the degradation ladder.
``processes``
    A :class:`~concurrent.futures.ProcessPoolExecutor` whose workers
    receive the (picklable) database, the rules and the parent's domain
    once, at pool start-up, and keep their own index caches for the
    lifetime of the closure.  The per-iteration delta and each task's
    distinct results cross the worker boundary as flat ``int64`` buffers
    in ``multiprocessing.shared_memory`` segments
    (:mod:`repro.engine.shm`), checksummed end to end, so ids never
    decode to values mid-closure and only task descriptors are pickled.

Worker pools, the supervisor's retry/degrade ladder
(:mod:`repro.engine.supervision`) and the segment ring serve the packed
closure only; a run that degrades ``processes`` → ``threads`` →
``serial`` finishes on :meth:`PackedClosure._run_serial`.
"""

from __future__ import annotations

import os
import threading
from array import array
from collections import Counter
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

from repro.datalog.terms import Constant
from repro.engine.faults import FaultPlan, apply_worker_fault
from repro.engine.plan import CompiledRule, compile_rule
from repro.engine.shm import (
    ManagedSegment,
    SegmentCorruption,
    SegmentRing,
    decode_result,
    encode_delta,
    packed_wire_fits,
    sabotage_segment,
    window_checksum,
    wire_checksum,
    worker_close,
    worker_read_range,
    worker_write_result,
)
from repro.engine.statistics import (
    EvaluationStatistics,
    HealthReport,
    JoinCounters,
)
from repro.engine.supervision import Supervisor
from repro.engine.vectorized import (
    InternedDeltaCache,
    decode_packed_rows,
    execute_batch,
    execute_interned_into,
    select_packed_specialization,
)
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

#: The scheduling backends accepted by :class:`EvalConfig`.
BACKENDS = ("serial", "threads", "processes")

#: The join-order planners accepted by :class:`EvalConfig`
#: (:mod:`repro.planner`).
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
      ``"serial"``, or, for the interned mode only, ``"threads"`` or
      ``"processes"`` with the delta partitioned across workers.

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
    #: Per-task deadline (seconds) on the parallel backends; a task that
    #: exceeds it is abandoned and resubmitted (the straggler's late
    #: output is discarded).  ``None`` disables the deadline.
    task_timeout: Optional[float] = None
    #: Wall-clock budget (seconds) for the whole evaluation; checked at
    #: every iteration start and between retries.  ``None`` disables it.
    deadline: Optional[float] = None
    #: Retry budget, applied at both supervision levels: each task may
    #: be resubmitted up to this many times, and each iteration replayed
    #: up to this many times per backend before the failure escalates
    #: (degrade or raise, per ``on_failure``).  ``0`` disables retries.
    max_retries: int = 2
    #: Base of the exponential retry backoff (seconds; jittered,
    #: capped).  ``0`` retries immediately.
    retry_backoff: float = 0.05
    #: What to do when a backend keeps failing after ``max_retries``
    #: consecutive iteration replays: ``"degrade"`` steps down the
    #: ladder (``processes`` → ``threads`` → ``serial``; the serial rung
    #: cannot fail), ``"raise"`` surfaces the failure.
    on_failure: str = "degrade"
    #: Test-only deterministic fault schedule
    #: (:class:`~repro.engine.faults.FaultPlan`); ``None`` — always, in
    #: production — injects nothing and costs nothing.
    fault_plan: Optional[FaultPlan] = None
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
    #: Join-order planner (:mod:`repro.planner`): ``"greedy"`` compiles
    #: the PR-1 heuristic order, ``"costed"`` runs the cost model over
    #: EDB cardinalities (seeded cold, refined warm from the planner
    #: catalog), ``"adaptive"`` additionally re-plans mid-fixpoint when
    #: the delta/total cardinality ratio drifts (see ``replan_ratio``).
    #: All three produce bit-identical results and Theorem-3.1 counts.
    planner: str = "greedy"
    #: Adaptive drift trigger: re-cost the program when the delta/total
    #: ratio moves by this factor (either direction) since the current
    #: plan was costed.  Must exceed 1; ignored outside adaptive mode.
    replan_ratio: float = 4.0

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
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive (or None)")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be at least 0")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be at least 0")
        if self.on_failure not in ("degrade", "raise"):
            raise ValueError(
                f"Unknown on_failure {self.on_failure!r}; expected "
                "'degrade' or 'raise'"
            )
        if self.planner not in PLANNERS:
            raise ValueError(
                f"Unknown planner {self.planner!r}; expected one of {PLANNERS}"
            )
        if self.replan_ratio <= 1:
            raise ValueError("replan_ratio must be greater than 1")
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
        ``processes``), a *planner* (``greedy``, ``costed``,
        ``adaptive``) and/or the flag ``maintain`` (incremental view
        maintenance in the serving layer) in any order; omitted parts
        keep their defaults.  Examples::

            EvalConfig.from_spec("interned-processes")
            EvalConfig.from_spec("interned-processes-maintain")
            EvalConfig.from_spec("interned-threads-adaptive")
            EvalConfig.from_spec("interned-costed")
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
        if self.planner != "greedy":
            base = f"{base}-{self.planner}"
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
        count, and every surplus process worker unpickles the EDB for
        nothing.
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
# Worker entry points
# ----------------------------------------------------------------------


def intern_program_constants(plans: Sequence[CompiledRule],
                             domain: Domain) -> None:
    """Intern every constant of the plans' rules into *domain*.

    Run before snapshotting a domain for worker seeding: with the EDB
    and the rule constants interned, every id a worker can ever emit is
    already known to the parent, so packed results decode without any
    reverse shipping of values.
    """
    for plan in plans:
        for atom in (plan.rule.head, *plan.rule.body):
            for term in atom.arguments:
                if isinstance(term, Constant):
                    domain.intern(term.value)


def _plan_orders(plans: Sequence[CompiledRule]) -> Optional[tuple]:
    """The per-plan forced orders to ship to workers (``None`` = all greedy)."""
    if any(plan.forced for plan in plans):
        return tuple(plan.order if plan.forced else None for plan in plans)
    return None


_WORKER_DATABASE: Optional[Database] = None
_WORKER_RULES: tuple = ()
_WORKER_PLANS: list[CompiledRule] = []
#: The forced join orders the worker's plans were compiled with
#: (``None`` everywhere the greedy order applies); every task carries
#: the parent's current orders, so an adaptive mid-fixpoint replan
#: propagates to the anonymous pool workers on their next task.
_WORKER_ORDERS: Optional[tuple] = None
#: Values the worker's domain was seeded with at pool start-up; a task's
#: domain tail replays ids ``base..`` in order, so once the domain has
#: caught up the replay can be skipped by a bare length check.
_WORKER_DOMAIN_BASE = 0


def _worker_sync_orders(orders: Optional[tuple]) -> None:
    """Recompile the worker's plans when the parent's orders changed.

    *orders* is ``None`` (all greedy) or a per-plan tuple of
    order-or-``None``.  A change recompiles every plan (the compile
    cache makes unchanged rules free) and drops the grouped packed
    specialisations, which are derived from the plans.
    """
    global _WORKER_PLANS, _WORKER_ORDERS
    if orders == _WORKER_ORDERS:
        return
    assert _WORKER_DATABASE is not None, "worker used before initialization"
    per_plan = orders if orders is not None else (None,) * len(_WORKER_RULES)
    _WORKER_PLANS = [
        compile_rule(rule, _WORKER_DATABASE, order=order)
        for rule, order in zip(_WORKER_RULES, per_plan)
    ]
    _WORKER_PACKED_FAST.clear()
    _WORKER_ORDERS = orders


def _process_worker_init(database: Database, rules: tuple,
                         domain_values: list,
                         orders: Optional[tuple] = None) -> None:
    """Process-pool initializer: receive the EDB and compile plans once.

    The database arrives pickled (relations only — caches are not part of
    its pickled state), so each worker owns an independent index cache
    that persists across every iteration of the closure.
    *domain_values* replays the parent's id assignment, so the worker's
    domain is bit-compatible with the parent's and flat id buffers can
    cross the process boundary in either direction.  *orders* ships the
    planner's forced join orders (``None`` under the greedy planner), so
    worker plans match the parent's exactly.
    """
    global _WORKER_DATABASE, _WORKER_RULES, _WORKER_PLANS
    global _WORKER_ORDERS, _WORKER_DOMAIN_BASE
    _WORKER_DATABASE = database
    _WORKER_RULES = tuple(rules)
    _WORKER_ORDERS = object()  # sentinel: force the sync below
    _worker_sync_orders(orders)
    database.domain().seed(domain_values)
    _WORKER_DOMAIN_BASE = len(domain_values)


class StripedPackedSink:
    """The packed closure's shared fresh-row accumulator, striped.

    Thread-backend packed tasks merge their distinct packed emissions
    into this structure instead of shipping private sets back for a
    serial union: rows are bucketed by ``packed % stripes`` and each
    stripe has its own lock, so merges from different workers contend
    only when they land on the same stripe.  ``drain()`` is called by
    the parent at the iteration barrier under the stripe locks (an
    abandoned straggler may still be merging — see the method); the
    union it returns is exactly the distinct emission set of the
    iteration (stripes are disjoint by construction).  One sink serves
    one iteration *attempt*: a replayed iteration starts a fresh sink,
    so emissions of a failed attempt are discarded wholesale.  On
    GIL-bound builds the striping is overhead-neutral;
    on free-threaded builds it is what keeps the merge off the critical
    path.
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
        """The union of all stripes (barrier-side).

        Taken under the stripe locks: every *accepted* task has finished
        before the barrier, but a task abandoned on timeout may still be
        running and merging — its rows are the same distinct rows its
        replacement produced (union-idempotent), the lock just keeps the
        concurrent ``update`` from racing the read.
        """
        out: set[int] = set()
        for index, stripe in enumerate(self._stripes):
            with self._locks[index]:
                out |= stripe
        return out


#: Per-worker grouped specialisations, keyed by (predicate, arity, K) —
#: rebuilt lazily per closure so the same pool can serve closures over
#: different predicates or packing bases.
_WORKER_PACKED_FAST: dict[tuple[str, int, int], list] = {}


def _worker_packed_specials(predicate_name: str, arity: int,
                            base_k: int) -> list:
    specials = _WORKER_PACKED_FAST.get((predicate_name, arity, base_k))
    if specials is None:
        specials = [
            select_packed_specialization(plan, predicate_name, arity, base_k)
            for plan in _WORKER_PLANS
        ]
        _WORKER_PACKED_FAST[(predicate_name, arity, base_k)] = specials
    return specials


def _packed_plans_over_rows(plans: Sequence[CompiledRule],
                            plan_indices: Sequence[int],
                            specials: Sequence[Any],
                            rows: Any, columns: Optional[tuple],
                            n_rows: int,
                            predicate_name: str, arity: int, base_k: int,
                            database: Database, domain: Domain,
                            distinct: set[int], counters: JoinCounters) -> int:
    """Run packed plans over one delta window; emissions go to *distinct*.

    *rows* is the window's packed values (any iterable of ints; may be
    ``None`` when only *columns* are at hand and no grouped plan needs
    the packed form), *columns* its column-wise form (built lazily when
    a generic plan needs an :class:`InternedRelation` view).  Shared by
    the thread tasks and the process workers so the per-plan dispatch —
    grouped specialisation vs generic interned pipeline — cannot drift
    between backends.  Returns the emission total (the multiset size).
    """
    view: Optional[InternedRelation] = None
    deltas: Optional[InternedDeltaCache] = None
    total = 0
    for index in plan_indices:
        plan = plans[index]
        fast = specials[index]
        if fast is not None:
            if rows is None:
                assert columns is not None
                rows = _compose_packed_rows(columns, base_k, n_rows)
            groups = fast.build_groups(rows, base_k)
            total += fast.run(groups, database, distinct, counters, n_rows)
            continue
        if view is None:
            if columns is None:
                columns = unpack_packed_columns(rows, base_k, arity)
            view = InternedRelation(predicate_name, arity, tuple(columns),
                                    n_rows)
            deltas = InternedDeltaCache(domain)
        emitted, _, _ = execute_interned_into(
            plan, database, distinct, {predicate_name: view}, counters,
            deltas, base_k,
        )
        total += emitted
    return total


def _compose_packed_rows(columns: tuple, base_k: int, n_rows: int) -> Any:
    """Column views back to packed values (the flat-wire grouped path)."""
    if len(columns) == 1:
        return columns[0]
    if len(columns) == 2:
        first, second = columns
        return [first[j] * base_k + second[j] for j in range(n_rows)]
    packed_rows = []
    for j in range(n_rows):
        packed = 0
        for column in columns:
            packed = packed * base_k + column[j]
        packed_rows.append(packed)
    return packed_rows


def _process_worker_run_packed(plan_indices: tuple[int, ...],
                               predicate_name: str, arity: int, base_k: int,
                               delta_name: str, wire_packed: bool,
                               start: int, stop: int,
                               result_name: str, result_capacity: int,
                               domain_tail: list, checksum: int,
                               fault: Optional[tuple[str, float]] = None,
                               orders: Optional[tuple] = None
                               ) -> tuple[int, int, JoinCounters,
                                          Optional[array], int]:
    """Packed process task: shared-memory ids in, shared-memory ids out.

    The worker maps a zero-copy window over rows ``start..stop-1`` of
    the shared delta segment, runs its plans entirely in packed-id
    space (grouped specialisations where the shape allows, the generic
    interned pipeline into a distinct-row sink otherwise), and writes
    the distinct packed emissions into the reserved result segment.
    Only ``(total, row count, counters)`` — and, when the result
    outgrew its segment, the payload itself plus the size needed next
    time — cross the pickle boundary.

    *checksum* is the additive sum the parent computed over this task's
    wire range before the copy into shared memory; the worker verifies
    the mapped window against it before any join work, so a
    lost-then-recreated or clobbered segment raises
    :class:`~repro.engine.shm.SegmentCorruption` instead of deriving
    from garbage ids.
    """
    assert _WORKER_DATABASE is not None, "worker used before initialization"
    _worker_sync_orders(orders)
    apply_worker_fault(fault, in_process_worker=True)
    database = _WORKER_DATABASE
    domain = database.domain()
    if len(domain) < _WORKER_DOMAIN_BASE + len(domain_tail):
        # The tail replays parent ids in order, so a domain already at
        # the target length has seen it (idempotent either way).
        for value in domain_tail:
            domain.intern(value)
    counters = JoinCounters()
    distinct: set[int] = set()
    specials = _worker_packed_specials(predicate_name, arity, base_k)
    shm, window = worker_read_range(delta_name, wire_packed, start, stop,
                                    arity)
    try:
        found = window_checksum(window, wire_packed)
        if found != checksum:
            raise SegmentCorruption(
                f"delta window [{start}:{stop}] of segment "
                f"{delta_name!r} sums to {found}, expected {checksum}"
            )
        if wire_packed:
            rows: Any = window
            columns = None
            n_rows = stop - start
        else:
            rows = None
            columns = window
            n_rows = stop - start
        total = _packed_plans_over_rows(
            _WORKER_PLANS, plan_indices, specials, rows, columns, n_rows,
            predicate_name, arity, base_k, database, domain, distinct,
            counters,
        )
    finally:
        # Drop every view over the mapping before closing it.
        rows = columns = window = None
        worker_close(shm)
    payload = encode_delta(distinct, len(distinct), arity, base_k,
                           wire_packed)
    needed = len(payload) * payload.itemsize
    if worker_write_result(result_name, result_capacity, payload):
        return total, len(distinct), counters, None, needed
    return total, len(distinct), counters, payload, needed


# ----------------------------------------------------------------------
# The evaluator
# ----------------------------------------------------------------------


class ParallelEvaluator:
    """Executes per-iteration rule batches under an :class:`EvalConfig`.

    Serial ``rows``/``batch`` drivers call :meth:`execute_batch` once
    per iteration; interned drivers take a :class:`PackedClosure` from
    :meth:`packed_closure` and step that instead.  A context manager:
    the packed closure's worker pool (if the backend has one) is created
    on ``__enter__`` and lives for the whole closure, so process workers
    pickle the EDB and compile plans exactly once and keep their index
    caches warm across iterations.
    """

    def __init__(self, plans: Sequence[CompiledRule], database: Database,
                 config: Optional[EvalConfig] = None,
                 health: Optional[HealthReport] = None):
        self.plans = list(plans)
        #: Per-plan forced join orders to ship to process workers
        #: (``None`` when every plan is greedy — the common case, in
        #: which worker compilation needs no hints at all).  Kept in
        #: sync by :meth:`replace_plans`.
        self.plan_orders = _plan_orders(self.plans)
        self.database = database
        self.config = config if config is not None else SERIAL_CONFIG
        #: Recovery-action log, usually the driver's
        #: ``statistics.health`` so retries/rebuilds/degradations land on
        #: the evaluation's report.
        self.health = health if health is not None else HealthReport()
        #: The retry/rebuild/degrade policy loop.  The *effective*
        #: backend lives on the supervisor and may step down the
        #: degradation ladder mid-evaluation; dispatch consults it, not
        #: ``config.backend``.
        self.supervisor = Supervisor(
            self.config, self.health,
            rebuild_pool=self._rebuild_pool,
            degrade=self._degrade,
            before_retry=self._before_iteration_retry,
        )
        #: Bumped whenever the worker pool is (re)built; consumers that
        #: cache pool-lifetime state (the packed closure's domain tail)
        #: refresh when it moves.
        self.pool_generation = 0
        self._pool: Optional[Executor] = None
        #: Domain size at pool start-up (process backend): the
        #: values workers were seeded with; later growth ships as a tail.
        #: Refreshed on every pool rebuild (rebuilt workers are seeded
        #: with the domain as it stands *then*).
        self._domain_base = 0
        #: Shared-memory segments of the packed process exchange; owned
        #: here so ``close()`` (and the drivers' ``with`` blocks, even on
        #: a worker-crash unwind) always unlinks them.
        self._segment_ring: Optional[SegmentRing] = None

    # ------------------------------------------------------------------

    def __enter__(self) -> "ParallelEvaluator":
        self.health.backend = self.supervisor.backend
        self._build_pool()
        return self

    def _build_pool(self, backend: Optional[str] = None) -> None:
        """Create the worker pool for the current *effective* backend."""
        config = self.config
        if backend is None:
            backend = self.supervisor.backend
        if backend == "threads":
            self._pool = ThreadPoolExecutor(
                max_workers=config.resolved_workers(),
                thread_name_prefix="repro-eval",
            )
        elif backend == "processes":
            rules = tuple(plan.rule for plan in self.plans)
            # Seed workers with a complete snapshot: the full EDB and
            # every rule constant interned up front, so worker domains
            # replay the parent's ids exactly and any id a worker emits
            # is already decodable by the parent.
            domain = self.database.domain()
            self.database.intern_all()
            intern_program_constants(self.plans, domain)
            domain_values = domain.values_snapshot()
            self._domain_base = len(domain_values)
            self._pool = ProcessPoolExecutor(
                max_workers=config.resolved_workers(),
                initializer=_process_worker_init,
                initargs=(self.database, rules, domain_values,
                          self.plan_orders),
            )
        else:
            self._pool = None

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            # A broken pool's workers are already gone; ``wait=True`` on
            # the healthy path lets thread workers finish unwinding.
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def _rebuild_pool(self) -> None:
        """Replace a broken pool (supervisor callback).

        Process workers are re-seeded exactly like at ``__enter__``:
        fresh database pickle, fresh plan compilation and a fresh domain
        snapshot, so ids stay aligned no matter how far the evaluation
        had progressed when the pool died.
        """
        self._shutdown_pool()
        self.pool_generation += 1
        self._build_pool()

    def _degrade(self, backend: str) -> None:
        """Step down to *backend* (supervisor callback).

        Tears down the failing pool and its shared-memory ring (the
        thread and serial rungs exchange nothing through segments), then
        builds whatever pool the new rung needs.  The supervisor updates
        its effective backend after this returns.
        """
        self._shutdown_pool()
        if self._segment_ring is not None:
            self.health.segments_recycled += self._segment_ring.recycle()
        self.pool_generation += 1
        self._build_pool(backend)

    def _before_iteration_retry(self) -> None:
        """Pre-replay hook: drop segments a failed attempt may have lost.

        Recycling gives every slot a fresh name on the next ``ensure``,
        so a replay can never collide with a leaked/corrupted segment or
        with a zombie writer from the abandoned attempt.
        """
        if self._segment_ring is not None:
            self.health.segments_recycled += self._segment_ring.recycle()

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker pool down and unlink shared memory (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._segment_ring is not None:
            self._segment_ring.close()
            self._segment_ring = None

    def _attach_segment_ring(self, slots: int) -> SegmentRing:
        """The evaluator-owned segment ring, created on first use."""
        if self._segment_ring is None:
            self._segment_ring = SegmentRing(slots)
        return self._segment_ring

    def replace_plans(self, new_plans: Sequence[CompiledRule]) -> None:
        """Swap in re-planned rules (adaptive planner, iteration boundary).

        The plan list is updated *in place* so holders of the list
        object (the packed closure) observe the swap; ``plan_orders``
        follows, and the next task shipped to each process worker
        carries the new orders (:func:`_worker_sync_orders`), so no pool
        rebuild is needed.  Callers on the packed path must also call
        :meth:`PackedClosure.refresh_plans` to rebuild plan-derived
        state.
        """
        if len(new_plans) != len(self.plans):
            raise ValueError(
                f"replace_plans got {len(new_plans)} plans for "
                f"{len(self.plans)} rules"
            )
        self.plans[:] = list(new_plans)
        self.plan_orders = _plan_orders(self.plans)

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
        self.supervisor.start_iteration()
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
        and decode once at the end, on every backend: on ``threads`` the
        workers share the parent's packed accumulator through a striped
        sink; on ``processes`` deltas and results cross the worker
        boundary as flat id buffers in ``multiprocessing.shared_memory``
        segments.  ``None`` for the ``rows``/``batch`` modes, whose
        drivers loop over :meth:`execute_batch`.
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

    The parallel backends run the same iteration with the delta split
    across workers (plans that scan the recursive predicate exactly once
    partition; any other plan runs unpartitioned, once):

    * ``threads`` — tasks share the parent database, domain and interned
      index caches directly and merge their distinct packed emissions
      into a :class:`StripedPackedSink`;
    * ``processes`` — deltas ship to (and distinct results return from)
      domain-seeded workers as flat ``int64`` buffers in
      ``multiprocessing.shared_memory`` segments
      (:mod:`repro.engine.shm`), so per-iteration traffic never decodes
      ids to values.

    Derivation/duplicate accounting is Counter-free and
    order-independent on every backend: each worker reports its emission
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
        self.refresh_plans()
        #: Domain growth beyond the process workers' seed snapshot.
        #: The base is frozen above, after interning everything a
        #: derivation can produce, so within one pool generation the
        #: tail never changes — computed lazily against the generation
        #: (a rebuilt pool is seeded with the *current* domain, so its
        #: tail snapshot must be retaken).
        self._domain_tail_cache: Optional[list] = None
        self._tail_generation = -1
        #: Whether packed values fit the ``int64`` shared-memory wire.
        self._packed_wire = packed_wire_fits(base, self.arity)

    # ------------------------------------------------------------------

    @property
    def backend(self) -> str:
        """The *effective* backend (may degrade during the closure)."""
        return self.evaluator.supervisor.backend

    def _domain_tail(self) -> list:
        """The seed-to-now domain tail for the current pool generation."""
        generation = self.evaluator.pool_generation
        if self._tail_generation != generation:
            self._domain_tail_cache = self.domain.values_snapshot(
                self.evaluator._domain_base)
            self._tail_generation = generation
        assert self._domain_tail_cache is not None
        return self._domain_tail_cache

    def delta_size(self) -> int:
        """Rows in the current delta (0 once the fixpoint is reached)."""
        return len(self._delta_packed)

    def total_size(self) -> int:
        """Rows accumulated so far (including the initial relation)."""
        return len(self.known)

    def sample_delta(self, limit: int) -> list[Row]:
        """A deterministic sample of the delta, decoded to value rows.

        The adaptive planner's frontier sample: the smallest *limit*
        packed values (sorting makes the sample identical on every
        backend) decoded through the domain.  The decoded rows probe the
        database's value-space indexes in
        :func:`repro.planner.adaptive.measure_fanouts`.
        """
        picked = sorted(self._delta_packed)[:limit]
        values = self.domain.values_view()
        base = self.base_k
        arity = self.arity
        rows: list[Row] = []
        for packed in picked:
            ids = [0] * arity
            for i in range(arity - 1, -1, -1):
                packed, ids[i] = divmod(packed, base)
            rows.append(tuple(values[ident] for ident in ids))
        return rows

    def refresh_plans(self) -> None:
        """Derive the per-plan state (at construction and after a plan swap).

        ``self.plans`` is the evaluator's own list, updated in place by
        :meth:`ParallelEvaluator.replace_plans` on an adaptive swap;
        everything derived from it — grouped specialisations and their
        persistent groups, the splittable partition — is recomputed
        here.  The packing base, domain, accumulated rows and delta are
        untouched: a plan swap changes how the next iteration runs,
        never what has been derived.
        """
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
        #: win — every iteration would ship the whole delta to a single
        #: worker task — so such closures stay on the in-process path.
        self._any_splittable = any(self._splittable)
        self._split_plans = tuple(
            i for i, ok in enumerate(self._splittable) if ok
        )
        self._solo_plans = tuple(
            i for i, ok in enumerate(self._splittable) if not ok
        )

    def _parallel_ready(self, n_rows: int) -> bool:
        """Whether this iteration's rows are worth farming out."""
        return (self.evaluator._pool is not None and self.partitions > 1
                and self._any_splittable
                and n_rows >= self.min_partition_rows)

    def _run(self, packed_rows: set[int], n_rows: int, naive: bool,
             statistics: EvaluationStatistics) -> tuple[int, set[int]]:
        """All plans against the packed rows; returns (total, distinct).

        Parallel iterations run as supervised *attempts*: join counters
        accumulate into per-attempt scratch and commit into
        ``statistics`` only when the attempt succeeds, so a replayed
        iteration — after a worker crash, task timeout, lost segment or
        injected fault — contributes exactly once.  The attempt body
        re-dispatches on the supervisor's effective backend, so replays
        after a degradation land on the new rung.
        """
        supervisor = self.evaluator.supervisor
        supervisor.start_iteration()
        if not self._parallel_ready(n_rows):
            statistics.rule_applications += len(self.plans)
            return self._run_serial(packed_rows, n_rows, naive,
                                    statistics.joins)

        def attempt() -> tuple[tuple[int, set[int]], JoinCounters]:
            counters = JoinCounters()
            backend = supervisor.backend
            if backend == "threads":
                outcome = self._run_threads(packed_rows, n_rows, counters)
            elif backend == "processes":
                outcome = self._run_processes(packed_rows, n_rows, counters)
            else:
                outcome = self._run_serial(packed_rows, n_rows, naive,
                                           counters)
            supervisor.check_merge_fault()
            return outcome, counters

        (total, distinct), counters = supervisor.run_iteration(attempt)
        statistics.rule_applications += len(self.plans)
        statistics.joins.merge(counters)
        return total, distinct

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

    def _run_threads(self, packed_rows: set[int], n_rows: int,
                     counters: JoinCounters) -> tuple[int, set[int]]:
        """One iteration attempt on the thread pool, via a striped sink.

        The delta is partitioned by ``packed % partitions`` (stable
        across runs — packed values are ints), each partition task runs
        every partitionable plan over its part against the shared parent
        database, and non-partitionable plans run once, in their own
        task over the full delta.  Workers push distinct emissions into
        the shared :class:`StripedPackedSink`; per-worker totals and
        counters return through the futures and reduce at the barrier.

        The sink is per *attempt*: a replayed task merges the same
        distinct rows again (idempotent union), an abandoned attempt's
        sink is discarded wholesale, and only totals of *accepted* task
        results are summed — which is why replays keep the Theorem-3.1
        accounting bit-identical.
        """
        pool = self.evaluator._pool
        assert pool is not None
        supervisor = self.evaluator.supervisor
        split_plans = self._split_plans
        solo_plans = self._solo_plans
        sink = StripedPackedSink(self.evaluator.config.resolved_workers())
        work: list[tuple[Any, tuple[int, ...]]] = []
        if split_plans:
            parts: list[list[int]] = [[] for _ in range(self.partitions)]
            for packed in packed_rows:
                parts[packed % self.partitions].append(packed)
            for part in parts:
                if part:
                    work.append((part, split_plans))
        if solo_plans:
            work.append((packed_rows, solo_plans))

        def make_submit(index: int, rows: Any, plan_indices: tuple[int, ...]):
            def submit():
                fault = supervisor.draw_task_fault(index)
                return pool.submit(self._packed_thread_task, rows,
                                   plan_indices, sink, fault)
            return submit

        submits = [make_submit(index, rows, plan_indices)
                   for index, (rows, plan_indices) in enumerate(work)]
        total = 0
        for task_total, task_counters in supervisor.gather(submits):
            total += task_total
            counters.merge(task_counters)
        return total, sink.drain()

    def _packed_thread_task(self, rows: Any, plan_indices: tuple[int, ...],
                            sink: StripedPackedSink,
                            fault: Optional[tuple[str, float]] = None
                            ) -> tuple[int, JoinCounters]:
        """Thread-backend packed task over one delta part."""
        apply_worker_fault(fault, in_process_worker=False)
        counters = JoinCounters()
        distinct: set[int] = set()
        total = _packed_plans_over_rows(
            self.plans, plan_indices, self._fast, rows, None, len(rows),
            self.name, self.arity, self.base_k, self.database, self.domain,
            distinct, counters,
        )
        sink.merge(distinct)
        return total, counters

    # -- processes -----------------------------------------------------

    def _run_processes(self, packed_rows: set[int], n_rows: int,
                       counters: JoinCounters) -> tuple[int, set[int]]:
        """One iteration attempt over shared memory on the process pool.

        The delta is written once into the ring's delta segment (packed
        ``int64`` values, or row-major digits when packed values can
        overflow ``int64``); each task is just a row range plus segment
        names, so nothing but descriptors and counters is pickled.
        Distinct results come back through the task's reserved result
        segment — a worker whose result outgrew its slot ships it inline
        once and the slot is grown for the following iterations.

        Supervision details: result slots are taken per *submission*
        (:meth:`~repro.engine.shm.SegmentRing.take_result`), so a task
        resubmitted after a timeout writes into a fresh slot instead of
        racing its abandoned twin; each task carries the parent-side
        checksum of its wire range, verified by the worker against the
        mapped window; and a replayed iteration
        finds the ring recycled (fresh names) and rewrites the delta
        from the same immutable ``packed_rows``.
        """
        pool = self.evaluator._pool
        assert pool is not None
        supervisor = self.evaluator.supervisor
        ring = self.evaluator._attach_segment_ring(self.partitions + 1)
        ring.begin_iteration()
        wire = encode_delta(packed_rows, n_rows, self.arity, self.base_k,
                            self._packed_wire)
        ring.delta.ensure(len(wire) * wire.itemsize)
        ring.delta.write_q(wire)
        delta_name = ring.delta.name
        split_plans = self._split_plans
        solo_plans = self._solo_plans
        tasks: list[tuple[tuple[int, ...], int, int]] = []
        if split_plans:
            chunk = -(-n_rows // self.partitions)
            start = 0
            while start < n_rows:
                stop = min(start + chunk, n_rows)
                tasks.append((split_plans, start, stop))
                start = stop
        if solo_plans:
            tasks.append((solo_plans, 0, n_rows))
        # The tail must ride every task: pool workers are anonymous, so
        # there is no way to know which of them have already replayed it
        # (a worker's first packed task may come at any iteration).  The
        # worker-side length check makes the replay itself one-shot, and
        # in every suite workload the tail is empty (seed values appear
        # in the EDB), so the recurring cost is the pickle of an empty
        # list.
        tail = self._domain_tail()
        entry_width = 1 if self._packed_wire else max(1, self.arity)
        # Checksums come from the pristine in-memory wire buffer, per
        # task range, *before* any fault can touch the segment.
        checksums = [
            wire_checksum(wire, start * entry_width, stop * entry_width)
            for (_, start, stop) in tasks
        ]
        segment_fault = supervisor.draw_segment_fault()
        if segment_fault is not None:
            sabotage_segment(delta_name, segment_fault[0])
        slots: list[Optional[ManagedSegment]] = [None] * len(tasks)

        def make_submit(index: int, plan_indices: tuple[int, ...],
                        start: int, stop: int, checksum: int):
            def submit():
                fault = supervisor.draw_task_fault(index)
                segment = ring.take_result()
                # Sized to a multiple of the task's input; grown further
                # on demand when a worker reports an overflow.
                segment.ensure(8 * entry_width * (4 * (stop - start) + 64))
                slots[index] = segment
                return pool.submit(
                    _process_worker_run_packed, plan_indices, self.name,
                    self.arity, self.base_k, delta_name, self._packed_wire,
                    start, stop, segment.name, segment.capacity, tail,
                    checksum, fault, self.evaluator.plan_orders,
                )
            return submit

        submits = [
            make_submit(index, plan_indices, start, stop, checksums[index])
            for index, (plan_indices, start, stop) in enumerate(tasks)
        ]
        total = 0
        distinct: set[int] = set()
        results = supervisor.gather(submits)
        for index, result in enumerate(results):
            task_total, n_distinct, task_counters, inline, needed = result
            total += task_total
            counters.merge(task_counters)
            segment = slots[index]
            assert segment is not None
            if inline is not None:
                payload: Any = inline
                segment.ensure(needed)
            else:
                payload = segment.read_q(n_distinct * entry_width)
            distinct.update(decode_result(payload, n_distinct, self.arity,
                                          self.base_k, self._packed_wire))
        return total, distinct

    def _unpack_columns(self, packed_rows: set[int]) -> tuple[list[int], ...]:
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
