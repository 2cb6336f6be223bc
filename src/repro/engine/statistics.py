"""Evaluation statistics in the cost model of Theorem 3.1.

The paper measures the quality of an evaluation by the number of *tuple
derivations* it performs: every arc of the derivation graph is one
derivation, and a derivation of a tuple that has already been produced is
a *duplicate*.  Failed derivation attempts (join steps that produce no
tuple) are not counted (footnote 2 of the paper); they are tracked
separately here as join-probe work because they matter for wall-clock
comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class HealthReport:
    """Recovery actions taken by the supervised parallel evaluator.

    Fault tolerance must never change *what* was computed — results and
    the Theorem-3.1 derivation/duplicate accounting stay bit-identical
    to a fault-free serial run — so everything the supervisor did to get
    there is recorded here instead: per-task retries and timeouts,
    worker-pool rebuilds after crashes, whole-iteration replays, shared
    memory segment churn, and the backend-degradation ladder
    (``processes`` → ``threads`` → ``serial``).  A fault-free run leaves
    every counter at zero.  The report lives on
    :attr:`EvaluationStatistics.health`; phase merging folds child
    reports into the parent like every other counter.
    """

    #: The effective backend at the end of evaluation ("" before any
    #: supervised evaluator ran; differs from the configured backend
    #: only after a degradation).
    backend: str = ""
    #: Task attempts re-submitted after a retriable failure.
    task_retries: int = 0
    #: Task attempts abandoned because they exceeded ``task_timeout``.
    task_timeouts: int = 0
    #: Worker pools torn down and rebuilt after a crash.
    pool_rebuilds: int = 0
    #: Whole iterations replayed from the last completed iteration's
    #: state (always safe: an iteration is a pure function of the delta
    #: and the accumulated total).
    iteration_retries: int = 0
    #: Shared-memory segments dropped and reallocated under fresh names
    #: during recovery (see :meth:`repro.engine.shm.SegmentRing.recycle`).
    segments_recycled: int = 0
    #: Faults fired by a test-only :class:`repro.engine.faults.FaultPlan`.
    faults_injected: int = 0
    #: Degradation steps taken, e.g. ``["processes->threads"]``.
    degradations: list[str] = field(default_factory=list)
    #: Committed batches appended to the write-ahead log
    #: (:class:`repro.durability.DurableLog`).
    wal_records_appended: int = 0
    #: WAL records replayed during crash recovery (records past the
    #: checkpoint generation at open).  Zero after a clean shutdown.
    wal_records_replayed: int = 0
    #: Torn/corrupt WAL tail records truncated during recovery.
    wal_records_truncated: int = 0
    #: Checkpoints written (startup, periodic, and close-time).
    checkpoints_written: int = 0
    #: Commits rejected by the bounded commit queue
    #: (:class:`repro.exceptions.OverloadError`).
    commits_shed: int = 0
    #: Queries abandoned past their serving deadline
    #: (:class:`repro.exceptions.QueryTimeoutError`).
    query_timeouts: int = 0

    def merge(self, other: "HealthReport") -> None:
        """Accumulate another report into this one."""
        self.task_retries += other.task_retries
        self.task_timeouts += other.task_timeouts
        self.pool_rebuilds += other.pool_rebuilds
        self.iteration_retries += other.iteration_retries
        self.segments_recycled += other.segments_recycled
        self.faults_injected += other.faults_injected
        self.degradations.extend(other.degradations)
        self.wal_records_appended += other.wal_records_appended
        self.wal_records_replayed += other.wal_records_replayed
        self.wal_records_truncated += other.wal_records_truncated
        self.checkpoints_written += other.checkpoints_written
        self.commits_shed += other.commits_shed
        self.query_timeouts += other.query_timeouts
        if other.backend:
            self.backend = other.backend

    def recovery_actions(self) -> int:
        """Total recovery actions taken (0 for a clean run).

        WAL replays and tail truncations count — they only happen when
        a previous process stopped without a clean close.  Ordinary
        durable operation (appends, checkpoints) and guardrail shedding
        (``commits_shed``/``query_timeouts``) do not: those are normal
        behaviour under load, not recovery.
        """
        return (self.task_retries + self.task_timeouts + self.pool_rebuilds
                + self.iteration_retries + self.segments_recycled
                + self.wal_records_replayed + self.wal_records_truncated
                + len(self.degradations))

    def as_dict(self) -> dict[str, object]:
        """Flat dictionary (for reports and CI artifacts)."""
        return {
            "backend": self.backend,
            "task_retries": self.task_retries,
            "task_timeouts": self.task_timeouts,
            "pool_rebuilds": self.pool_rebuilds,
            "iteration_retries": self.iteration_retries,
            "segments_recycled": self.segments_recycled,
            "faults_injected": self.faults_injected,
            "degradations": list(self.degradations),
            "wal_records_appended": self.wal_records_appended,
            "wal_records_replayed": self.wal_records_replayed,
            "wal_records_truncated": self.wal_records_truncated,
            "checkpoints_written": self.checkpoints_written,
            "commits_shed": self.commits_shed,
            "query_timeouts": self.query_timeouts,
            "recovery_actions": self.recovery_actions(),
        }


@dataclass
class RulePlanInfo:
    """One rule's executed join order, as reported by the planner.

    ``order`` is the permutation of body-atom indices the compiled plan
    runs (the greedy compile-time order of :mod:`repro.engine.plan`).
    """

    rule: str = ""
    order: tuple[int, ...] = ()


@dataclass
class PlannerReport:
    """The join orders an evaluation ran.

    Hangs off :attr:`EvaluationStatistics.planner` for every driver run.
    Excluded from statistics equality comparisons: join order changes
    join work, never what is derived.
    """

    #: Always ``greedy``, the only planner
    #: (``costed``/``adaptive`` are spellings of it).
    mode: str = "greedy"
    #: Per-rule executed orders, aligned with the driver's rule tuple.
    rules: list[RulePlanInfo] = field(default_factory=list)
    #: Mid-fixpoint plan swaps; always empty, since plans never change
    #: during a fixpoint.  Kept for readers of the report.
    replans: list = field(default_factory=list)
    #: Free-form planning annotations; the greedy planner adds none
    #: (:func:`repro.planner.explain_program` prints commuting rule pairs).
    notes: list[str] = field(default_factory=list)


@dataclass
class JoinCounters:
    """Low-level work counters for one or more conjunctive evaluations."""

    #: Number of candidate rows examined across all join steps.
    rows_probed: int = 0
    #: Number of (partial) bindings extended successfully.
    bindings_extended: int = 0
    #: Number of head tuples emitted (before any deduplication).
    tuples_emitted: int = 0

    def merge(self, other: "JoinCounters") -> None:
        """Accumulate another counter set into this one."""
        self.rows_probed += other.rows_probed
        self.bindings_extended += other.bindings_extended
        self.tuples_emitted += other.tuples_emitted


@dataclass
class EvaluationStatistics:
    """Statistics for one recursive-query evaluation.

    ``derivations`` counts every successful production of a head tuple by
    a rule application (an arc of the derivation graph).  ``duplicates``
    counts productions whose tuple was already known at the time it was
    (re)produced, including re-productions within the same iteration.
    Theorem 3.1's quantity |E| equals ``derivations``; the number of nodes
    |V| equals ``result_size``.
    """

    #: Total successful tuple productions (arcs of the derivation graph).
    derivations: int = 0
    #: Productions of tuples already present (derivations - distinct new tuples).
    duplicates: int = 0
    #: Number of fixpoint iterations performed.
    iterations: int = 0
    #: Number of rule applications (one per rule per iteration or phase).
    rule_applications: int = 0
    #: Size of the initial relation Q.
    initial_size: int = 0
    #: Size of the final answer T.
    result_size: int = 0
    #: Low-level join work.
    joins: JoinCounters = field(default_factory=JoinCounters)
    #: Recovery actions taken by the supervised parallel evaluator
    #: (retries, pool rebuilds, degradations); all-zero for clean runs.
    health: HealthReport = field(default_factory=HealthReport)
    #: The join orders this evaluation ran.  Excluded from equality:
    #: planning metadata never affects *what* was computed.
    planner: Optional[PlannerReport] = field(default=None, compare=False,
                                             repr=False)
    #: Free-form labelled sub-phase statistics (e.g. the two phases of a
    #: decomposed evaluation).
    phases: dict[str, "EvaluationStatistics"] = field(default_factory=dict)

    # ------------------------------------------------------------------

    def record_production(self, is_duplicate: bool) -> None:
        """Record one successful tuple production."""
        self.derivations += 1
        if is_duplicate:
            self.duplicates += 1

    def new_tuples(self) -> int:
        """Number of distinct tuples derived (excluding the initial relation)."""
        return self.derivations - self.duplicates

    def duplicate_ratio(self) -> float:
        """Fraction of derivations that were duplicates (0 when no derivations)."""
        if self.derivations == 0:
            return 0.0
        return self.duplicates / self.derivations

    def merge(self, other: "EvaluationStatistics") -> None:
        """Accumulate another statistics object into this one (phases kept)."""
        self.derivations += other.derivations
        self.duplicates += other.duplicates
        self.iterations += other.iterations
        self.rule_applications += other.rule_applications
        self.joins.merge(other.joins)
        self.health.merge(other.health)

    def add_phase(self, name: str, stats: "EvaluationStatistics") -> None:
        """Record a labelled sub-phase and fold its counters into the totals."""
        self.phases[name] = stats
        self.merge(stats)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"derivations={self.derivations} duplicates={self.duplicates} "
            f"iterations={self.iterations} result={self.result_size} "
            f"initial={self.initial_size}"
        )

    def as_dict(self) -> dict[str, int | float]:
        """Flat dictionary of the headline counters (for reports)."""
        return {
            "derivations": self.derivations,
            "duplicates": self.duplicates,
            "duplicate_ratio": round(self.duplicate_ratio(), 4),
            "iterations": self.iterations,
            "rule_applications": self.rule_applications,
            "initial_size": self.initial_size,
            "result_size": self.result_size,
            "rows_probed": self.joins.rows_probed,
        }
