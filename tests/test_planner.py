"""Tests for the cost-based/adaptive planner (`repro.planner`).

The load-bearing property is *bit-identical semantics*: every planner
mode must produce the same result relation, the same Theorem-3.1
derivation/duplicate counts and the same cross-backend join-counter
signature as the greedy baseline — join order is a performance choice,
never a semantic one.  On top of that the skewed `rulegen` families
assert the performance ordering the planner exists for: costed beats
greedy where cold statistics suffice, adaptive beats both where only
the live frontier reveals the skew.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.datalog.parser import parse_rule
from repro.engine.parallel import PLANNERS, EvalConfig
from repro.engine.plan import clear_plan_cache, greedy_body_order
from repro.engine.seminaive import seminaive_closure
from repro.engine.naive import naive_closure
from repro.engine.statistics import EvaluationStatistics
from repro.planner import (
    ProfileSource,
    RelationProfile,
    costed_body_order,
    estimate_order,
    explain_program,
    plan_program,
    planner_catalog,
    step_matches,
)
from repro.storage.database import Database
from repro.storage.relation import Relation
from repro.workloads.rulegen import hub_drift_program, skewed_filter_program


@pytest.fixture(autouse=True)
def fresh_catalog():
    """The warm catalog and plan cache are process-global; the same Rule
    value appears here over databases of different sizes (greedy's order
    depends on sizes seen at first compile), so isolate every test."""
    planner_catalog().clear()
    clear_plan_cache()
    yield
    planner_catalog().clear()
    clear_plan_cache()


def chain_db(length=6):
    return Database.of(Relation.of("edge", 2, [(i, i + 1) for i in range(length)]))


TC_RULE = parse_rule("path(X, Y) :- edge(X, Z), path(Z, Y).")
IDENTITY = Relation.of("path", 2, [(i, i) for i in range(7)])


def signature(rows, statistics):
    """The cross-mode invariant: results + Theorem-3.1 accounting."""
    return (
        frozenset(rows),
        statistics.derivations,
        statistics.duplicates,
        statistics.iterations,
    )


def counters(statistics):
    """The within-mode, cross-backend invariant: low-level join work."""
    joins = statistics.joins
    return (joins.rows_probed, joins.bindings_extended, joins.tuples_emitted)


class TestCostModel:
    def test_profile_is_exact(self):
        relation = Relation.of("r", 2, [(1, 1), (1, 2), (2, 2)])
        profile = RelationProfile.of(relation)
        assert profile.size == 3
        assert profile.distinct == (2, 2)

    def test_assumed_profile_is_all_distinct(self):
        profile = RelationProfile.assumed(10, 3)
        assert profile.size == 10
        assert profile.distinct == (10, 10, 10)

    def test_step_matches_divides_by_bound_distincts(self):
        db = Database.of(Relation.of("r", 2, [(i % 2, i) for i in range(8)]))
        profiles = ProfileSource(db)
        atom = parse_rule("h(X) :- r(X, Y).").body[0]
        x, _ = atom.arguments
        # Unbound: the whole relation matches.
        assert step_matches(atom, (), profiles) == 8.0
        # X bound: 8 rows / 2 distinct first-column values.
        assert step_matches(atom, (x,), profiles) == 4.0

    def test_unknown_predicate_profiles_empty(self):
        profiles = ProfileSource(Database({}))
        assert profiles.profile("nowhere", 2).size == 0

    def test_hints_override_database(self):
        db = Database.of(Relation.of("r", 2, [(1, 2)]))
        profiles = ProfileSource(db, hints={"r": 99})
        assert profiles.profile("r", 2).size == 99

    def test_equality_atoms_are_free(self):
        rule = parse_rule("h(X, Y) :- r(X, Y), X = Y.")
        db = Database.of(Relation.of("r", 2, [(1, 1), (2, 2)]))
        profiles = ProfileSource(db)
        bare = estimate_order(rule.body, (0,), profiles)
        woven = estimate_order(rule.body, (0, 1), profiles)
        assert woven.cost == bare.cost

    def test_estimate_is_deterministic(self):
        rules, database, initial = skewed_filter_program(chain=8, sel_padding=50)
        profiles = ProfileSource(database, hints={initial.name: 1})
        first = costed_body_order(rules[0], profiles, lead_name=initial.name)
        second = costed_body_order(rules[0], profiles, lead_name=initial.name)
        assert first == second


class TestCostedSearch:
    def test_picks_selective_atom_despite_size(self):
        # greedy's size tie-break scans the small-but-fat `blow` first;
        # the cost model sees `sel`'s matches-per-probe and flips them.
        rules, database, initial = skewed_filter_program()
        rule = rules[0]
        greedy = greedy_body_order(rule.body, database, {initial.name: initial})
        profiles = ProfileSource(database, hints={initial.name: len(initial)})
        order, estimate, _ = costed_body_order(rule, profiles,
                                               lead_name=initial.name)
        assert greedy == (0, 1, 2)          # p, blow, sel
        assert order == (0, 2, 1)           # p, sel, blow
        assert estimate.cost > 0

    def test_order_is_a_permutation_with_recursive_lead(self):
        rules, database, initial = hub_drift_program()
        profiles = ProfileSource(database, hints={initial.name: 1})
        order, _, _ = costed_body_order(rules[0], profiles,
                                        lead_name=initial.name)
        assert sorted(order) == list(range(len(rules[0].body)))
        assert order[0] == 0                # the p(X, Z) scan leads

    def test_equalities_woven_after_a_side_is_bound(self):
        rule = parse_rule("h(X, Y) :- a(X), Y = X, b(Y).")
        db = Database.of(
            Relation.of("a", 1, [(1,)]),
            Relation.of("b", 1, [(1,), (2,)]),
        )
        order, _, _ = costed_body_order(rule, ProfileSource(db))
        # The equality must appear after a(X) binds X, before/after b.
        assert set(order) == {0, 1, 2}
        assert order.index(1) > order.index(0)


class TestCatalog:
    def test_observe_keeps_the_cheaper_order(self):
        catalog = planner_catalog()
        catalog.observe(TC_RULE, (0, 1), 10.0)
        catalog.observe(TC_RULE, (1, 0), 3.0)
        catalog.observe(TC_RULE, (0, 1), 8.0)   # worse: ignored
        suggestion = catalog.suggest(TC_RULE)
        assert suggestion.order == (1, 0)
        assert suggestion.measured_cost == 3.0

    def test_same_order_accumulates_runs_and_minimum(self):
        catalog = planner_catalog()
        catalog.observe(TC_RULE, (0, 1), 10.0)
        catalog.observe(TC_RULE, (0, 1), 4.0)
        suggestion = catalog.suggest(TC_RULE)
        assert suggestion.runs == 2
        assert suggestion.measured_cost == 4.0

    def test_clear_forgets(self):
        catalog = planner_catalog()
        catalog.observe(TC_RULE, (0, 1), 1.0)
        catalog.clear()
        assert catalog.suggest(TC_RULE) is None
        assert len(catalog) == 0

    def test_costed_run_warms_the_catalog(self):
        stats = EvaluationStatistics()
        seminaive_closure((TC_RULE,), IDENTITY, chain_db(), stats,
                          config=EvalConfig(planner="costed"))
        assert planner_catalog().suggest(TC_RULE) is not None
        # A second run plans from the warm observation.
        warm_stats = EvaluationStatistics()
        seminaive_closure((TC_RULE,), IDENTITY, chain_db(), warm_stats,
                          config=EvalConfig(planner="costed"))
        assert warm_stats.planner.rules[0].source == "warm"


class TestEvalConfigKnob:
    def test_spec_round_trip(self):
        for spec in ("rows-costed", "interned-adaptive",
                     "interned-threads-costed"):
            config = EvalConfig.from_spec(spec)
            assert EvalConfig.from_spec(config.spec()) == config
        assert EvalConfig.from_spec("interned-costed").planner == "costed"
        assert EvalConfig.from_spec("rows").planner == "greedy"

    def test_greedy_is_spec_default_and_unspelled(self):
        assert "greedy" not in EvalConfig().spec()

    def test_unknown_planner_rejected(self):
        with pytest.raises(ValueError):
            EvalConfig(planner="exhaustive")
        with pytest.raises(ValueError):
            EvalConfig.from_spec("rows-exhaustive")

    def test_replan_ratio_must_exceed_one(self):
        with pytest.raises(ValueError):
            EvalConfig(replan_ratio=1.0)


class TestPlanProgram:
    def test_greedy_reports_orders(self):
        stats = EvaluationStatistics()
        session = plan_program((TC_RULE,), chain_db(), None, stats, IDENTITY)
        assert stats.planner.mode == "greedy"
        assert stats.planner.rules[0].source == "greedy"
        assert sorted(stats.planner.rules[0].order) == [0, 1]
        assert not session.plans[0].forced

    def test_costed_reports_estimates_and_forces_plans(self):
        rules, database, initial = skewed_filter_program()
        stats = EvaluationStatistics()
        session = plan_program(rules, database,
                               EvalConfig(planner="costed"), stats, initial)
        info = stats.planner.rules[0]
        assert info.source == "cold"
        assert info.order == (0, 2, 1)
        assert info.estimated_cost is not None
        assert session.plans[0].forced
        assert session.plans[0].order == (0, 2, 1)

    def test_commuting_pair_is_noted(self, tc_rules):
        database = Database.of(
            Relation.of("q", 2, [(0, 1)]),
            Relation.of("r", 2, [(1, 2)]),
        )
        stats = EvaluationStatistics()
        plan_program(tc_rules, database, EvalConfig(planner="costed"),
                     stats, Relation.of("p", 2, [(0, 0)]))
        assert any("commute" in note for note in stats.planner.notes)

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
        stats = EvaluationStatistics()
        session = plan_program(rules, database, EvalConfig(planner="costed"),
                               stats, Relation.of("p", 2, [(0, 0)]))
        assert len(session.plans) == 2
        assert [info.source for info in stats.planner.rules] == ["cold"] * 2
        assert stats.planner.notes == []

    @pytest.mark.parametrize("module, name", [
        ("repro.core.redundancy", "find_redundant_predicates"),
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
            plan_program(tc_rules, database, EvalConfig(planner="costed"),
                         EvaluationStatistics(), Relation.of("p", 2, [(0, 0)]))


SPECS = ("rows", "batch", "interned", "interned-threads",
         "interned-processes")


class TestParity:
    """Planner modes are invisible in results and Theorem-3.1 counts."""

    def _solve(self, workload, mode, spec, driver=seminaive_closure):
        rules, database, initial = workload
        config = dataclasses.replace(
            EvalConfig.from_spec(spec), planner=mode, max_workers=2,
        )
        planner_catalog().clear()
        clear_plan_cache()
        stats = EvaluationStatistics()
        rows = driver(rules, initial, database, stats, config=config).rows
        return signature(rows, stats), counters(stats), stats

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
                planner_catalog().clear()
                stats = EvaluationStatistics()
                rows = seminaive_closure((TC_RULE,), IDENTITY, db, stats,
                                         config=config).rows
                observed = signature(rows, stats)
                reference = reference if reference is not None else observed
                assert observed == reference, (mode, spec)


class TestPlannerWins:
    """The skewed families the planner exists for (bench floors)."""

    def _probes(self, workload, mode, spec="rows"):
        _, work, stats = TestParity()._solve(workload, mode, spec)
        return work[0], stats

    @pytest.mark.parametrize("spec", ("rows", "interned-processes"))
    def test_costed_beats_greedy_on_skewed_filter(self, spec):
        workload = skewed_filter_program()
        greedy, _ = self._probes(workload, "greedy", spec)
        costed, stats = self._probes(workload, "costed", spec)
        assert costed < greedy
        assert stats.planner.rules[0].source == "cold"

    @pytest.mark.parametrize("spec", ("rows", "interned-processes"))
    def test_adaptive_beats_costed_on_hub_drift(self, spec):
        workload = hub_drift_program()
        greedy, _ = self._probes(workload, "greedy", spec)
        costed, _ = self._probes(workload, "costed", spec)
        adaptive, stats = self._probes(workload, "adaptive", spec)
        assert adaptive < min(greedy, costed)
        report = stats.planner
        assert report.replans, "expected at least one mid-fixpoint replan"
        event = report.replans[0]
        assert event.iteration >= 1
        assert event.rule_index == 0
        assert event.old_order != event.new_order
        assert event.delta_ratio > 0
        assert report.replan_checks >= len(report.replans)

    def test_adaptive_replans_recorded_in_explain(self):
        rules, database, initial = hub_drift_program()
        text = explain_program(rules, database,
                               EvalConfig(planner="adaptive"),
                               initial=initial)
        assert "planner: adaptive" in text
        assert "re-cost when delta/total drifts" in text

    def test_report_actuals_populated(self):
        workload = skewed_filter_program(chain=8, sel_padding=40)
        _, stats = self._probes(workload, "costed")
        actual = stats.planner.actual
        assert actual["derivations"] == stats.derivations
        assert actual["rows_probed"] == stats.joins.rows_probed
        assert stats.planner.trajectory
