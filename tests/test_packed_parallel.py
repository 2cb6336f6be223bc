"""Tests for the packed-id closure.

The packed closure is bit-identical to the value-space executors:
identical result relations, identical derivation/duplicate statistics
and identical low-level join counters under every backend spelling
(``threads`` and ``processes`` mean ``serial``), on the grouped
binary, grouped chain (3-atom, binary and 5-ary heads) and generic
interned shapes — plus Theorem 3.1's partition independence on a
hand-split delta, byte-identical 3-run determinism and errors that
reach the caller unchanged.
"""

from __future__ import annotations

import pickle
import random
import time

import pytest

from repro.datalog.parser import parse_rule
from repro.engine.decomposed import pairwise_decomposed_closure
from repro.engine.naive import naive_closure
from repro.engine import parallel
from repro.engine.parallel import EvalConfig, Evaluator
from repro.engine.plan import compile_rule
from repro.engine.seminaive import seminaive_closure
from repro.engine.statistics import EvaluationStatistics
from repro.engine.vectorized import (
    PackedBinaryJoin,
    PackedChainJoin,
    packed_specialization_shape,
    select_packed_specialization,
)
from repro.storage.database import Database
from repro.storage.relation import Relation
from repro.workloads.graphs import layered_dag_edges
from repro.workloads.wide import wide5_workload, wide_multirule_workload

PARALLEL_BACKENDS = ["threads", "processes"]
BACKENDS = ["serial"] + PARALLEL_BACKENDS


def packed_config(backend: str) -> EvalConfig:
    """An interned config under *backend*, spelled as the benchmark
    harness spells the non-serial ones."""
    extra = {} if backend == "serial" else {"max_workers": 2}
    return EvalConfig(executor="batch", intern=True, backend=backend,
                      **extra)


# ----------------------------------------------------------------------
# Scenarios: one per packed shape class
# ----------------------------------------------------------------------


def scenario_layered_tc():
    """Binary TC — the two-scan ``grouped-binary`` shape."""
    rules = (parse_rule("path(X, Y) :- edge(X, Z), path(Z, Y)."),)
    database = Database.of(
        layered_dag_edges(6, 8, fanout=2, name="edge", rng=random.Random(11))
    )
    initial = Relation.of(
        "path", 2, [(n, n) for n in sorted(database.active_domain())]
    )
    return rules, database, initial


def scenario_wide_chain():
    """The 3-atom chain rules with a binary head (``grouped-chain``)."""
    return wide_multirule_workload(5, 8, num_rules=4, rng=random.Random(3))


def scenario_wide5():
    """The 3-atom chain rules with the paper's 5-ary head."""
    return wide5_workload(5, 8, num_rules=4, rng=random.Random(3))


def scenario_same_generation():
    """Same-generation: no grouped shape, the generic interned pipeline."""
    rules = (parse_rule("sg(X, Y) :- up(X, U), sg(U, V), down(V, Y)."),)
    rng = random.Random(5)
    up = layered_dag_edges(4, 6, fanout=2, name="up", rng=rng)
    down = Relation.of("down", 2, [(b, a) for a, b in up.rows])
    # Seeded on the last layer (ids 18..23): up(X, U) needs U to have
    # a parent, so a first-layer seed derives nothing.
    initial = Relation.of("sg", 2, [(i, i) for i in range(18, 24)])
    return rules, Database.of(up, down), initial


SCENARIOS = {
    "layered-tc": scenario_layered_tc,
    "wide-chain": scenario_wide_chain,
    "wide5": scenario_wide5,
    "same-generation": scenario_same_generation,
}


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


def run_closure(closure, scenario: str, config):
    rules, database, initial = SCENARIOS[scenario]()
    database = Database(dict(database.relations))
    statistics = EvaluationStatistics()
    relation = closure(rules, initial, database, statistics, config=config)
    return relation, statistics


# ----------------------------------------------------------------------
# Parity: backends × shapes, full counters
# ----------------------------------------------------------------------


class TestPackedParity:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_seminaive_bit_identical_to_rows(self, scenario, backend):
        reference, reference_stats = run_closure(
            seminaive_closure, scenario, None
        )
        relation, statistics = run_closure(
            seminaive_closure, scenario, packed_config(backend)
        )
        assert relation.rows == reference.rows
        assert full_signature(statistics) == full_signature(reference_stats)

    @pytest.mark.parametrize("scenario", ["layered-tc", "wide-chain", "wide5"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_naive_bit_identical_to_rows(self, scenario, backend):
        reference, reference_stats = run_closure(naive_closure, scenario, None)
        relation, statistics = run_closure(
            naive_closure, scenario, packed_config(backend)
        )
        assert relation.rows == reference.rows
        assert full_signature(statistics) == full_signature(reference_stats)

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_three_runs_byte_identical(self, backend):
        outcomes = set()
        for _ in range(3):
            relation, statistics = run_closure(
                seminaive_closure, "wide5", packed_config(backend)
            )
            outcomes.add(
                (pickle.dumps(sorted(relation.rows)),
                 full_signature(statistics))
            )
        assert len(outcomes) == 1

    def test_decomposed_and_separable_forward_packed_config(self):
        rules, database, initial = scenario_wide_chain()
        first, second = rules[:2], rules[2:]
        reference_stats = EvaluationStatistics()
        reference = pairwise_decomposed_closure(
            first, second, initial, Database(dict(database.relations)),
            reference_stats,
        )
        statistics = EvaluationStatistics()
        relation = pairwise_decomposed_closure(
            first, second, initial, Database(dict(database.relations)),
            statistics, config=packed_config("processes"),
        )
        assert relation.rows == reference.rows
        assert full_signature(statistics) == full_signature(reference_stats)

    def test_all_solo_plans_stay_in_process(self):
        """A rule scanning the recursive predicate twice agrees with rows.

        Such a rule cannot be row-partitioned (a derivation consumes two
        delta-or-total rows), so it is the one shape the split test
        below leaves out; the packed closure must still agree with the
        rows executor on it, counters included.
        """
        rules = (parse_rule("p(X, Y) :- p(X, Z), p(Z, Y)."),)
        initial = Relation.of("p", 2, [(i, i + 1) for i in range(12)])
        database = Database.of()
        reference_stats = EvaluationStatistics()
        reference = seminaive_closure(rules, initial, Database.of(),
                                      reference_stats)
        plans = [compile_rule(rule, database) for rule in rules]
        statistics = EvaluationStatistics()
        evaluator = Evaluator(plans, database, packed_config("processes"))
        packed = evaluator.packed_closure(initial)
        assert packed is not None
        while packed.delta_size():
            statistics.iterations += 1
            packed.step_seminaive(statistics)
        relation = packed.freeze()
        statistics.result_size = len(relation)
        assert relation.rows == reference.rows
        assert full_signature(statistics) == full_signature(reference_stats)

    def test_task_error_propagates_unchanged(self, monkeypatch):
        """A raising rule application reaches the caller on its first attempt.

        Its original type, run once, no retry, no degradation and no
        backoff sleep: nothing stands between a plan and the caller.
        """
        attempts = []

        def failing_plan(plan, *rest):
            attempts.append(plan)
            raise ZeroDivisionError("plan body")

        def no_sleep(seconds):
            raise AssertionError(f"slept {seconds}s")

        # Same-generation runs the generic interned pipeline.
        monkeypatch.setattr(parallel, "execute_interned_into", failing_plan)
        monkeypatch.setattr(time, "sleep", no_sleep)
        rules, database, initial = scenario_same_generation()
        statistics = EvaluationStatistics()
        with pytest.raises(ZeroDivisionError, match="plan body"):
            seminaive_closure(rules, initial, database, statistics,
                              config=packed_config("threads"))
        assert len(attempts) == 1
        health = statistics.health
        assert health.task_retries == health.iteration_retries == 0
        assert health.degradations == []

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_split_delta_merges_to_whole_delta(self, scenario):
        """Theorem 3.1's partition independence, on a hand-split delta.

        A plan that scans the recursive predicate once consumes exactly
        one delta row per derivation, so over any split of a delta the
        parts' emission totals sum, and their distinct packed sets
        union, to the whole delta's: the schedule of an iteration can
        never move its counts.
        """
        rules, database, initial = SCENARIOS[scenario]()
        name = initial.name
        plans = [
            compile_rule(rule, database) for rule in rules
            if sum(atom.predicate.name == name for atom in rule.body) == 1
        ]
        assert plans
        packed = Evaluator(plans, database,
                           packed_config("serial")).packed_closure(initial)
        statistics = EvaluationStatistics()
        # The first iteration's delta: the initial relation, packed.
        delta = set(packed._delta_packed)
        whole_total, whole_distinct = packed._run(delta, len(delta), False,
                                                  statistics)
        assert whole_total > 0
        for k in (2, 3):
            parts = [{row for row in delta if row % k == r} for r in range(k)]
            assert all(parts)
            total = 0
            distinct: set[int] = set()
            for part in parts:
                part_total, part_distinct = packed._run(
                    part, len(part), False, statistics)
                total += part_total
                distinct |= part_distinct
            assert total == whole_total
            assert distinct == whole_distinct


# ----------------------------------------------------------------------
# The grouped specialisations
# ----------------------------------------------------------------------


class TestGroupedSpecialisations:
    def test_chain_selected_for_wide_rules(self):
        rules, database, _ = scenario_wide_chain()
        plan = compile_rule(rules[0], database)
        special = select_packed_specialization(plan, "wide", 2, 100)
        assert isinstance(special, PackedChainJoin)
        assert special.identity_carry

    def test_chain_selected_for_wide5_rules(self):
        rules, database, _ = scenario_wide5()
        plan = compile_rule(rules[0], database)
        special = select_packed_specialization(plan, "wide5", 5, 100)
        assert isinstance(special, PackedChainJoin)
        assert special.identity_carry
        assert special.v_coeff == 100 ** 4

    def test_binary_still_preferred_for_two_scan_shape(self):
        rules, database, _ = scenario_layered_tc()
        plan = compile_rule(rules[0], database)
        special = select_packed_specialization(plan, "path", 2, 100)
        assert isinstance(special, PackedBinaryJoin)

    def test_generic_shapes_not_specialised(self):
        rules, database, _ = scenario_same_generation()
        plan = compile_rule(rules[0], database)
        assert select_packed_specialization(plan, "sg", 2, 100) is None

    def test_non_identity_orientation_uses_general_groups(self):
        """A chain probing the delta's second digit still groups exactly."""
        rules = (parse_rule("p(X, Y) :- p(X, V), q(V, W), r(W, Y)."),)
        # r's first column feeds the probe; head takes (carried X, probed Y)?
        # This shape binds from the probed row, so it stays generic —
        # assert the planner refuses rather than mis-grouping.
        database = Database.of(
            Relation.of("q", 2, [(i, i + 1) for i in range(6)]),
            Relation.of("r", 2, [(i, i % 3) for i in range(7)]),
        )
        plan = compile_rule(rules[0], database)
        special = select_packed_specialization(plan, "p", 2, 100)
        assert special is None or not special.identity_carry

    def test_explain_annotates_grouped_shapes(self):
        rules, database, _ = scenario_wide5()
        plan = compile_rule(rules[0], database)
        assert packed_specialization_shape(plan) == "grouped-chain"
        text = plan.explain(executor="interned")
        assert "packed-closure specialization: grouped-chain" in text

    def test_chain_counters_match_generic_pipeline(self):
        """The grouped chain's counters equal the generic interned path's.

        The serial rows executor is the neutral arbiter: the wide chain
        scenario runs through PackedChainJoin under ``interned`` and
        through the per-row slot executor under the default config, and
        the counters must agree exactly (delta-first plans).
        """
        reference, reference_stats = run_closure(
            naive_closure, "wide-chain", None
        )
        relation, statistics = run_closure(
            naive_closure, "wide-chain", packed_config("serial")
        )
        assert relation.rows == reference.rows
        assert full_signature(statistics) == full_signature(reference_stats)
