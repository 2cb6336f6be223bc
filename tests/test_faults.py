"""The evaluation deadline, its validation, and the health report.

``EvalConfig.deadline`` is a wall-clock budget for the *whole*
evaluation: every driver checks it at each iteration start, and the
multi-phase drivers (``decomposed_closure``, ``separable_evaluate``)
start the clock once, so the budget spans all of their phases.  This
suite drives the deadline on the rows and packed closures, with a
patched clock where the phase boundaries matter, checks that a
non-finite or non-positive budget is rejected, and covers the unit
behaviour of :class:`~repro.engine.statistics.HealthReport`.
"""

from __future__ import annotations

import time

import pytest

from repro.datalog.parser import parse_rule
from repro.engine import decomposed, separable
from repro.engine.decomposed import pairwise_decomposed_closure
from repro.engine.parallel import EvalConfig
from repro.engine.seminaive import seminaive_closure
from repro.engine.separable import separable_evaluate
from repro.engine.statistics import EvaluationStatistics, HealthReport
from repro.exceptions import EvaluationError
from repro.storage.database import Database
from repro.storage.relation import Relation
from repro.storage.selection import EqualitySelection


def tc_workload():
    """A 10-iteration transitive closure."""
    rules = (parse_rule("path(X, Y) :- edge(X, Z), path(Z, Y)."),)
    edges = [(i, i + 1) for i in range(10)] + [(0, 5), (3, 8), (2, 7)]
    database = Database.of(Relation.of("edge", 2, edges))
    initial = Relation.of("path", 2, [(n, n) for n in range(11)])
    return rules, database, initial


def threads_config(**kwargs) -> EvalConfig:
    """The packed closure, spelled as the benchmark harness spells it."""
    return EvalConfig(executor="batch", intern=True, backend="threads",
                      max_workers=2, **kwargs)


def run(closure, config) -> tuple[Relation, EvaluationStatistics]:
    rules, database, initial = tc_workload()
    statistics = EvaluationStatistics()
    relation = closure(rules, initial, database, statistics, config=config)
    return relation, statistics


# ----------------------------------------------------------------------
# Health accounting
# ----------------------------------------------------------------------


class TestHealthAccounting:
    @pytest.mark.parametrize("spec", ["interned-threads",
                                      "interned-processes"])
    def test_clean_run_reports_nothing(self, spec):
        """``recovery_actions()`` is 0 for a clean run, whatever backend
        it spells: ``processes`` used to leave a degradation behind."""
        config = EvalConfig.from_spec(spec)
        _, statistics = run(seminaive_closure, config)
        health = statistics.health
        assert health.degradations == []
        assert health.recovery_actions() == 0
        assert config.backend == "serial"


# ----------------------------------------------------------------------
# The deadline
# ----------------------------------------------------------------------


def decomposed_call(config: EvalConfig) -> Relation:
    first = (parse_rule("p(X, Y) :- q(X, U), p(U, Y)."),)
    second = (parse_rule("p(X, Y) :- p(X, V), r(V, Y)."),)
    q = Relation.of("q", 2, [(i, i + 1) for i in range(8)])
    r = Relation.of("r", 2, [(i, i + 1) for i in range(8)])
    initial = Relation.of("p", 2, [(0, 0), (3, 3)])
    return pairwise_decomposed_closure(first, second, initial,
                                       Database.of(q, r), config=config)


def separable_call(config: EvalConfig) -> Relation:
    outer = (parse_rule("reach(X, Y) :- left(X, U), reach(U, Y)."),)
    inner = (parse_rule("reach(X, Y) :- reach(X, V), right(V, Y)."),)
    left = Relation.of("left", 2, [(i, i + 1) for i in range(10)])
    right = Relation.of("right", 2, [(i, i + 1) for i in range(10)])
    initial = Relation.of("reach", 2, [(i, i) for i in range(11)])
    return separable_evaluate(outer, inner, EqualitySelection(0, 0),
                              initial, Database.of(left, right),
                              config=config)


class TestPolicyEscapes:
    def test_deadline_aborts_evaluation(self):
        with pytest.raises(EvaluationError, match="deadline"):
            run(seminaive_closure, threads_config(deadline=1e-8))

    def test_deadline_applies_to_serial_too(self):
        with pytest.raises(EvaluationError, match="deadline"):
            run(seminaive_closure, EvalConfig(deadline=1e-8))

    @pytest.mark.parametrize("driver,call", [
        (decomposed, decomposed_call),
        (separable, separable_call),
    ], ids=["decomposed", "separable"])
    def test_deadline_spans_every_phase(self, monkeypatch, driver, call):
        """A clock that only moves between phases: each phase is instant,
        the gap between them is 1.5 s.  A 1 s budget must expire in the
        second phase; a 2 s budget must not."""
        now = [0.0]
        monkeypatch.setattr(time, "monotonic", lambda: now[0])
        phase = driver.seminaive_closure

        def timed_phase(*args, **kwargs):
            result = phase(*args, **kwargs)
            now[0] += 1.5
            return result

        monkeypatch.setattr(driver, "seminaive_closure", timed_phase)
        reference = call(EvalConfig())
        now[0] = 0.0
        assert call(EvalConfig(deadline=2.0)).rows == reference.rows
        now[0] = 0.0
        with pytest.raises(EvaluationError, match="deadline of 1.0s"):
            call(EvalConfig(deadline=1.0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvalConfig(deadline=-1)
        with pytest.raises(ValueError):
            EvalConfig(deadline=0)

    @pytest.mark.parametrize("field", ["deadline"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_limits_rejected(self, field, value):
        # NaN compares false with everything, so a ``<= 0`` check let
        # ``deadline=nan`` through and the deadline never fired.
        with pytest.raises(ValueError, match=field):
            EvalConfig(**{field: value})
        with pytest.raises(ValueError, match=field):
            EvalConfig.from_spec("interned-threads", **{field: value})


# ----------------------------------------------------------------------
# HealthReport units
# ----------------------------------------------------------------------


class TestHealthReport:
    def test_merge_sums_counters(self):
        first = HealthReport(task_retries=2, degradations=["a->b"],
                             wal_records_replayed=1)
        second = HealthReport(task_retries=1, iteration_retries=4)
        first.merge(second)
        assert first.task_retries == 3
        assert first.iteration_retries == 4
        assert first.wal_records_replayed == 1
        assert first.degradations == ["a->b"]

    def test_as_dict_roundtrips_counters(self):
        report = HealthReport(task_retries=1, degradations=["x->y"])
        flat = report.as_dict()
        assert flat["task_retries"] == 1
        assert flat["iteration_retries"] == 0
        assert flat["degradations"] == ["x->y"]
        assert flat["recovery_actions"] == report.recovery_actions() == 2

    def test_statistics_merge_folds_health(self):
        parent = EvaluationStatistics()
        child = EvaluationStatistics()
        child.health.iteration_retries = 2
        child.health.degradations.append("processes->threads")
        parent.merge(child)
        assert parent.health.iteration_retries == 2
        assert parent.health.degradations == ["processes->threads"]
