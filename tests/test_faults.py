"""Chaos parity: every deterministic fault schedule changes *nothing*.

The supervised evaluator's contract is that fault tolerance is
invisible in the results: under worker kills, task errors, timeouts,
lost or corrupted shared-memory segments, merge-point failures and
forced backend degradations, evaluation completes with the result
relation, the Theorem-3.1 derivation/duplicate accounting and the
low-level join counters bit-identical to a fault-free serial run — only
the :class:`~repro.engine.statistics.HealthReport` shows that anything
happened.  This suite drives planned :class:`FaultPlan` schedules
through {threads, processes} × {semi-naive, naive} and asserts exactly
that, plus 3-run byte-determinism under a fixed schedule, the
``on_failure="raise"`` and ``deadline`` escapes, and the unit behaviour
of the plan/report types themselves.
"""

from __future__ import annotations

import pickle

import pytest

from repro.datalog.parser import parse_rule
from repro.engine.faults import FaultEvent, FaultPlan, InjectedFault
from repro.engine.naive import naive_closure
from repro.engine.parallel import EvalConfig, PackedClosure
from repro.engine.seminaive import seminaive_closure
from repro.engine.statistics import EvaluationStatistics, HealthReport
from repro.exceptions import EvaluationError
from repro.storage.database import Database
from repro.storage.relation import Relation

PARALLEL_BACKENDS = ["threads", "processes"]


def tc_workload():
    """A 10-iteration transitive closure — room for mid-closure faults."""
    rules = (parse_rule("path(X, Y) :- edge(X, Z), path(Z, Y)."),)
    edges = [(i, i + 1) for i in range(10)] + [(0, 5), (3, 8), (2, 7)]
    database = Database.of(Relation.of("edge", 2, edges))
    initial = Relation.of("path", 2, [(n, n) for n in range(11)])
    return rules, database, initial


def chaos_config(backend: str, plan: FaultPlan | None = None,
                 **kwargs) -> EvalConfig:
    """An interned parallel config that actually partitions on 1 CPU."""
    base = dict(executor="batch", intern=True, backend=backend,
                max_workers=2, partitions=3, min_partition_rows=2,
                retry_backoff=0.0, fault_plan=plan)
    base.update(kwargs)
    return EvalConfig(**base)


def full_signature(statistics: EvaluationStatistics):
    return (
        statistics.derivations,
        statistics.duplicates,
        statistics.iterations,
        statistics.rule_applications,
        statistics.result_size,
        statistics.joins.rows_probed,
        statistics.joins.bindings_extended,
        statistics.joins.tuples_emitted,
    )


def run(closure, config) -> tuple[Relation, EvaluationStatistics]:
    rules, database, initial = tc_workload()
    statistics = EvaluationStatistics()
    relation = closure(rules, initial, database, statistics, config=config)
    return relation, statistics


# Schedules are built fresh per run (plans are mutable, single-use).
# ``extra`` carries config knobs a schedule needs (e.g. the timeout).
SCHEDULES: dict[str, dict] = {
    "task-error": dict(
        events=lambda: [FaultEvent("task", "error", iteration=1,
                                   task_index=0)],
        extra={},
    ),
    "task-timeout": dict(
        events=lambda: [FaultEvent("task", "delay", iteration=1,
                                   task_index=0, seconds=0.5)],
        extra={"task_timeout": 0.05},
    ),
    "worker-kill": dict(
        events=lambda: [FaultEvent("task", "kill", iteration=2,
                                   task_index=0)],
        extra={},
    ),
    "merge-error": dict(
        events=lambda: [FaultEvent("merge", "error", iteration=2)],
        extra={},
    ),
    "forced-degrade": dict(
        events=lambda: [FaultEvent("task", "error", count=500)],
        extra={},
    ),
    # Segment schedules only make sense where segments exist.
    "segment-leak": dict(
        events=lambda: [FaultEvent("segment", "leak", iteration=2)],
        extra={},
        backends=("processes",),
    ),
    "segment-corrupt": dict(
        events=lambda: [FaultEvent("segment", "corrupt", iteration=2)],
        extra={},
        backends=("processes",),
    ),
}


def schedule_cases():
    for name, spec in SCHEDULES.items():
        for backend in spec.get("backends", PARALLEL_BACKENDS):
            yield pytest.param(name, backend, id=f"{name}-{backend}")


def build_plan(name: str) -> FaultPlan:
    return FaultPlan(SCHEDULES[name]["events"]())


# ----------------------------------------------------------------------
# Chaos parity: faulty runs are bit-identical to fault-free serial
# ----------------------------------------------------------------------


class TestChaosParity:
    @pytest.mark.parametrize("schedule,backend", schedule_cases())
    def test_seminaive_parity_under_faults(self, schedule, backend):
        reference, reference_stats = run(seminaive_closure, None)
        plan = build_plan(schedule)
        relation, statistics = run(
            seminaive_closure,
            chaos_config(backend, plan, **SCHEDULES[schedule]["extra"]),
        )
        assert relation.rows == reference.rows
        assert full_signature(statistics) == full_signature(reference_stats)
        assert plan.fired, "the schedule never fired — the test is vacuous"
        assert statistics.health.faults_injected == len(plan.fired)
        assert statistics.health.recovery_actions() >= 1

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    @pytest.mark.parametrize("schedule", ["task-error", "worker-kill"])
    def test_naive_parity_under_faults(self, schedule, backend):
        reference, reference_stats = run(naive_closure, None)
        plan = build_plan(schedule)
        relation, statistics = run(
            naive_closure,
            chaos_config(backend, plan, **SCHEDULES[schedule]["extra"]),
        )
        assert relation.rows == reference.rows
        assert full_signature(statistics) == full_signature(reference_stats)
        assert plan.fired

    def test_three_runs_byte_identical_under_fixed_schedule(self):
        outcomes = set()
        for _ in range(3):
            plan = FaultPlan([
                FaultEvent("task", "kill", iteration=2, task_index=0),
                FaultEvent("task", "error", iteration=3, task_index=0),
                FaultEvent("merge", "error", iteration=4),
            ])
            relation, statistics = run(
                seminaive_closure, chaos_config("processes", plan))
            outcomes.add((pickle.dumps(sorted(relation.rows)),
                          full_signature(statistics),
                          tuple(plan.fired)))
        assert len(outcomes) == 1

    def test_seeded_plans_sweep_clean(self):
        """A handful of ``from_seed`` schedules, all bit-identical."""
        reference, reference_stats = run(seminaive_closure, None)
        for seed in range(3):
            plan = FaultPlan.from_seed(seed)
            relation, statistics = run(
                seminaive_closure, chaos_config("threads", plan))
            assert relation.rows == reference.rows
            assert (full_signature(statistics)
                    == full_signature(reference_stats)), f"seed {seed}"


# ----------------------------------------------------------------------
# Recovery actions land on the health report
# ----------------------------------------------------------------------


class TestHealthAccounting:
    def test_worker_kill_records_pool_rebuild(self):
        plan = build_plan("worker-kill")
        _, statistics = run(seminaive_closure,
                            chaos_config("processes", plan))
        health = statistics.health
        assert health.pool_rebuilds >= 1
        assert health.iteration_retries >= 1
        assert health.segments_recycled >= 1
        assert health.backend == "processes"
        assert not health.degradations

    def test_task_error_records_task_retry(self):
        plan = build_plan("task-error")
        _, statistics = run(seminaive_closure, chaos_config("threads", plan))
        assert statistics.health.task_retries >= 1

    def test_timeout_records_task_timeout(self):
        plan = build_plan("task-timeout")
        _, statistics = run(
            seminaive_closure,
            chaos_config("threads", plan, task_timeout=0.05))
        assert statistics.health.task_timeouts >= 1

    def test_forced_degradation_walks_the_ladder(self, monkeypatch):
        """The floor of the ladder is the packed closure's serial step."""
        rungs = []
        run_serial = PackedClosure._run_serial

        def spy(closure, *args):
            rungs.append(closure.backend)
            return run_serial(closure, *args)

        monkeypatch.setattr(PackedClosure, "_run_serial", spy)
        plan = build_plan("forced-degrade")
        reference, reference_stats = run(seminaive_closure, None)
        relation, statistics = run(seminaive_closure,
                                   chaos_config("processes", plan))
        assert relation.rows == reference.rows
        assert full_signature(statistics) == full_signature(reference_stats)
        assert statistics.health.degradations == [
            "processes->threads", "threads->serial",
        ]
        assert statistics.health.backend == "serial"
        assert "serial" in rungs

    def test_clean_run_reports_nothing(self):
        _, statistics = run(seminaive_closure, chaos_config("threads"))
        health = statistics.health
        assert health.recovery_actions() == 0
        assert health.faults_injected == 0
        assert health.backend == "threads"


# ----------------------------------------------------------------------
# Policy escapes: on_failure="raise" and the deadline
# ----------------------------------------------------------------------


class TestPolicyEscapes:
    def test_on_failure_raise_surfaces_the_fault(self):
        plan = build_plan("forced-degrade")
        with pytest.raises(EvaluationError):
            run(seminaive_closure,
                chaos_config("threads", plan, on_failure="raise"))

    def test_zero_retries_with_raise_fails_fast(self):
        plan = build_plan("task-error")
        with pytest.raises(EvaluationError):
            run(seminaive_closure,
                chaos_config("threads", plan, max_retries=0,
                             on_failure="raise"))

    def test_deadline_aborts_evaluation(self):
        with pytest.raises(EvaluationError, match="deadline"):
            run(seminaive_closure, chaos_config("threads", deadline=1e-8))

    def test_deadline_applies_to_serial_too(self):
        with pytest.raises(EvaluationError, match="deadline"):
            run(seminaive_closure, EvalConfig(deadline=1e-8))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvalConfig(on_failure="panic")
        with pytest.raises(ValueError):
            EvalConfig(max_retries=-1)
        with pytest.raises(ValueError):
            EvalConfig(task_timeout=0)
        with pytest.raises(ValueError):
            EvalConfig(deadline=-1)
        with pytest.raises(ValueError):
            EvalConfig(retry_backoff=-0.1)


# ----------------------------------------------------------------------
# FaultPlan / FaultEvent / HealthReport units
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_draw_matches_point_iteration_and_task(self):
        plan = FaultPlan([FaultEvent("task", "error", iteration=2,
                                     task_index=1)])
        assert plan.draw("task", 1, 1) is None
        assert plan.draw("task", 2, 0) is None
        assert plan.draw("merge", 2, 1) is None
        assert plan.draw("task", 2, 1) == ("error", 0.2)
        # count=1: consumed.
        assert plan.draw("task", 2, 1) is None
        assert plan.exhausted()
        assert plan.fired == [("task", "error", 2, 1)]

    def test_wildcards_match_anything(self):
        plan = FaultPlan([FaultEvent("merge", "error", count=3)])
        assert plan.draw("merge", 1) is not None
        assert plan.draw("merge", 7) is not None
        assert not plan.exhausted()

    def test_reset_rearms(self):
        plan = FaultPlan([FaultEvent("task", "error")])
        assert plan.draw("task", 1, 0) is not None
        assert plan.exhausted()
        plan.reset()
        assert not plan.exhausted()
        assert plan.fired == []
        assert plan.draw("task", 5, 2) is not None

    def test_from_seed_is_reproducible(self):
        first = FaultPlan.from_seed(42)
        second = FaultPlan.from_seed(42)
        assert [vars(e) for e in first.events] == [
            vars(e) for e in second.events]
        assert [vars(e) for e in first.events] != [
            vars(e) for e in FaultPlan.from_seed(43).events]

    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent("bogus", "error")
        with pytest.raises(ValueError):
            FaultEvent("task", "leak")
        with pytest.raises(ValueError):
            FaultEvent("merge", "error", count=0)

    def test_injected_fault_is_catchable(self):
        with pytest.raises(InjectedFault):
            from repro.engine.faults import apply_worker_fault
            apply_worker_fault(("error", 0.0), in_process_worker=False)


class TestHealthReport:
    def test_merge_sums_counters_and_keeps_latest_backend(self):
        first = HealthReport(backend="processes", task_retries=2,
                             pool_rebuilds=1, degradations=["a->b"])
        second = HealthReport(backend="threads", task_retries=1,
                              segments_recycled=4)
        first.merge(second)
        assert first.task_retries == 3
        assert first.pool_rebuilds == 1
        assert first.segments_recycled == 4
        assert first.backend == "threads"
        assert first.degradations == ["a->b"]

    def test_as_dict_roundtrips_counters(self):
        report = HealthReport(backend="threads", task_retries=1,
                              faults_injected=2, degradations=["x->y"])
        flat = report.as_dict()
        assert flat["task_retries"] == 1
        assert flat["faults_injected"] == 2
        assert flat["degradations"] == ["x->y"]
        assert flat["recovery_actions"] == report.recovery_actions() == 2

    def test_statistics_merge_folds_health(self):
        parent = EvaluationStatistics()
        child = EvaluationStatistics()
        child.health.pool_rebuilds = 2
        child.health.degradations.append("processes->threads")
        parent.merge(child)
        assert parent.health.pool_rebuilds == 2
        assert parent.health.degradations == ["processes->threads"]
