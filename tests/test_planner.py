"""Tests for the planner surface (`repro.planner`).

Greedy is the only join order.  The load-bearing properties are that
the greedy plans give bit-identical results, Theorem-3.1
derivation/duplicate counts and join counters on every executor and
backend, and that the frozen spellings ``costed`` / ``adaptive`` are
exactly greedy: same report, same probes, same plan cache.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.datalog.parser import parse_rule
from repro.engine.parallel import PLANNERS, EvalConfig
from repro.engine.plan import clear_plan_cache
from repro.engine.seminaive import seminaive_closure
from repro.engine.naive import naive_closure
from repro.engine.statistics import EvaluationStatistics
from repro.planner import explain_program, plan_program, planner_catalog
from repro.storage.database import Database
from repro.storage.relation import Relation
from repro.workloads.rulegen import hub_drift_program, skewed_filter_program


@pytest.fixture(autouse=True)
def fresh_plan_cache():
    """The plan cache is process-global; the same Rule value appears here
    over databases of different sizes (greedy's order depends on sizes
    seen at first compile), so isolate every test."""
    clear_plan_cache()
    yield
    clear_plan_cache()


def chain_db(length=6):
    return Database.of(Relation.of("edge", 2, [(i, i + 1) for i in range(length)]))


TC_RULE = parse_rule("path(X, Y) :- edge(X, Z), path(Z, Y).")
IDENTITY = Relation.of("path", 2, [(i, i) for i in range(7)])


def signature(rows, statistics):
    """The cross-spelling invariant: results + Theorem-3.1 accounting."""
    return (
        frozenset(rows),
        statistics.derivations,
        statistics.duplicates,
        statistics.iterations,
    )


def counters(statistics):
    """The cross-backend invariant: low-level join work."""
    joins = statistics.joins
    return (joins.rows_probed, joins.bindings_extended, joins.tuples_emitted)


class TestEvalConfigKnob:
    def test_spec_round_trip(self):
        for spec in ("rows-costed", "interned-adaptive",
                     "interned-threads-costed"):
            config = EvalConfig.from_spec(spec)
            assert EvalConfig.from_spec(config.spec()) == config
        assert EvalConfig.from_spec("interned-costed").planner == "greedy"
        assert EvalConfig.from_spec("rows").planner == "greedy"

    def test_greedy_is_spec_default_and_unspelled(self):
        assert "greedy" not in EvalConfig().spec()
        assert EvalConfig.from_spec("rows-adaptive").spec() == "rows-serial"

    def test_unknown_planner_rejected(self):
        with pytest.raises(ValueError):
            EvalConfig(planner="exhaustive")
        with pytest.raises(ValueError):
            EvalConfig.from_spec("rows-exhaustive")

    @pytest.mark.parametrize("spelling", PLANNERS)
    def test_every_spelling_is_greedy(self, spelling):
        assert EvalConfig(planner=spelling) == EvalConfig()
        assert EvalConfig(planner=spelling).planner == "greedy"
        assert hash(EvalConfig(planner=spelling)) == hash(EvalConfig())


class TestCatalog:
    def test_clear_forgets(self):
        # Kept for the benchmark harness, which clears it before a cold
        # plan; greedy planning remembers nothing between evaluations.
        catalog = planner_catalog()
        catalog.clear()
        assert not catalog


class TestPlanProgram:
    def test_greedy_reports_orders(self):
        stats = EvaluationStatistics()
        plans = plan_program((TC_RULE,), chain_db(), None, stats, IDENTITY)
        assert stats.planner.mode == "greedy"
        assert stats.planner.replans == []
        assert sorted(stats.planner.rules[0].order) == [0, 1]
        assert stats.planner.rules[0].order == plans[0].order

    def test_commuting_pair_is_noted(self, tc_rules):
        database = Database.of(
            Relation.of("q", 2, [(0, 1)]),
            Relation.of("r", 2, [(1, 2)]),
        )
        text = explain_program(tc_rules, database,
                               initial=Relation.of("p", 2, [(0, 0)]))
        assert "commute: rules 0 and 1 commute (Theorem 5.2)" in text

    @pytest.mark.parametrize("texts", [
        # A constant (no a-graph) and a repeated consequent variable.
        ("p(X, Y) :- p(U, Y), q(X, U), r(X, 3).",
         "p(X, X) :- p(U, X), q(U, U)."),
        # Not linear recursive, beside a repeated nonrecursive predicate.
        ("p(X, Y) :- p(X, Z), p(Z, Y).",
         "p(X, Y) :- p(X, V), q(V, W), q(W, Y)."),
    ])
    def test_rules_outside_the_analysed_class_plan_with_no_notes(self, texts):
        rules = tuple(parse_rule(text) for text in texts)
        database = Database.of(
            Relation.of("q", 2, [(0, 1), (1, 1)]),
            Relation.of("r", 2, [(0, 3)]),
        )
        text = explain_program(rules, database,
                               initial=Relation.of("p", 2, [(0, 0)]))
        assert text.count("order:") == 2
        assert "commute" not in text

    @pytest.mark.parametrize("module, name", [
        ("repro.core.commutativity", "commute_polynomial"),
    ])
    def test_unexpected_analysis_errors_propagate(self, tc_rules, monkeypatch,
                                                  module, name):
        def broken(*args, **kwargs):
            raise RuntimeError("analysis bug")

        monkeypatch.setattr(f"{module}.{name}", broken)
        database = Database.of(
            Relation.of("q", 2, [(0, 1)]),
            Relation.of("r", 2, [(1, 2)]),
        )
        with pytest.raises(RuntimeError, match="analysis bug"):
            explain_program(tc_rules, database,
                            initial=Relation.of("p", 2, [(0, 0)]))


SPECS = ("rows", "batch", "interned", "interned-threads",
         "interned-processes")


def _solve(workload, config, driver=seminaive_closure):
    rules, database, initial = workload
    clear_plan_cache()
    stats = EvaluationStatistics()
    rows = driver(rules, initial, database, stats, config=config).rows
    return signature(rows, stats), counters(stats), stats


class TestParity:
    """Every planner spelling, executor and backend computes the same."""

    def _solve(self, workload, mode, spec, driver=seminaive_closure):
        config = dataclasses.replace(
            EvalConfig.from_spec(spec), planner=mode, max_workers=2,
        )
        return _solve(workload, config, driver)

    @pytest.mark.parametrize("spec", SPECS)
    def test_modes_agree_on_skewed_filter(self, spec):
        workload = skewed_filter_program(chain=8, sel_padding=40)
        reference, _, _ = self._solve(workload, "greedy", spec)
        for mode in ("costed", "adaptive"):
            observed, _, _ = self._solve(workload, mode, spec)
            assert observed == reference, (mode, spec)

    @pytest.mark.parametrize("mode", PLANNERS)
    def test_backends_share_counters_within_mode(self, mode):
        workload = hub_drift_program(chain=10, hot_start=3, hot_fanout=6,
                                     alt_fanout=2, padding=50)
        reference = None
        baseline = None
        for spec in SPECS:
            observed, work, _ = self._solve(workload, mode, spec)
            if reference is None:
                reference, baseline = observed, work
            assert observed == reference, (mode, spec)
            assert work == baseline, (mode, spec)

    @pytest.mark.parametrize("mode", PLANNERS)
    def test_naive_driver_agrees(self, mode):
        workload = skewed_filter_program(chain=6, sel_padding=30)
        reference, _, _ = self._solve(workload, "greedy", "rows",
                                      driver=naive_closure)
        observed, _, _ = self._solve(workload, mode, "rows",
                                     driver=naive_closure)
        assert observed == reference

    def test_tc_chain_all_modes_all_specs(self):
        db = chain_db()
        reference = None
        for mode in PLANNERS:
            for spec in ("rows", "interned", "interned-processes"):
                config = dataclasses.replace(
                    EvalConfig.from_spec(spec), planner=mode, max_workers=2,
                )
                stats = EvaluationStatistics()
                rows = seminaive_closure((TC_RULE,), IDENTITY, db, stats,
                                         config=config).rows
                observed = signature(rows, stats)
                reference = reference if reference is not None else observed
                assert observed == reference, (mode, spec)


class TestFrozenSpellings:
    """``costed`` and ``adaptive`` are accepted and run greedy, exactly."""

    @pytest.mark.parametrize("workload", [
        skewed_filter_program, hub_drift_program,
    ], ids=lambda factory: factory.__name__)
    @pytest.mark.parametrize("spelling, greedy", [
        ("costed", "rows"),
        ("adaptive", "rows"),
        ("interned-costed", "interned"),
        (EvalConfig(planner="adaptive"), "rows"),
    ], ids=["costed", "adaptive", "interned-costed", "EvalConfig-adaptive"])
    def test_spelling_runs_greedy(self, workload, spelling, greedy):
        config = (EvalConfig.from_spec(spelling)
                  if isinstance(spelling, str) else spelling)
        reference, _, greedy_stats = _solve(workload(),
                                            EvalConfig.from_spec(greedy))
        observed, _, stats = _solve(workload(), config)
        assert stats.planner.mode == "greedy"
        assert stats.planner.replans == []
        assert stats.joins.rows_probed == greedy_stats.joins.rows_probed
        assert observed == reference
