"""Tests for the packed-id closure on the parallel backends.

The serial packed closure is bit-identical to the value-space
executors; this suite holds the thread backend (striped shared sink)
— and ``processes``, its accepted spelling — to the same bar:
identical result relations, identical derivation/duplicate statistics,
and identical low-level join counters, across every backend, on the
grouped binary, grouped chain (3-atom, binary and 5-ary heads) and
generic interned shapes — plus byte-identical 3-run determinism and
errors that reach the caller unchanged.
"""

from __future__ import annotations

import pickle
import random
import time

import pytest

from repro.datalog.parser import parse_rule
from repro.engine.decomposed import pairwise_decomposed_closure
from repro.engine.naive import naive_closure
from repro.engine.parallel import (
    EvalConfig,
    PackedClosure,
    ParallelEvaluator,
    StripedPackedSink,
)
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


def packed_config(backend: str, **kwargs) -> EvalConfig:
    """An interned config that actually partitions on this 1-CPU box."""
    extra = {}
    if backend != "serial":
        extra = {"max_workers": 2, "partitions": 3, "min_partition_rows": 2}
    extra.update(kwargs)
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
    initial = Relation.of("sg", 2, [(i, i) for i in range(6)])
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
        """No splittable plan → no farming out, but results unchanged.

        A rule scanning the recursive predicate twice cannot be
        row-partitioned; with nothing to split, shipping whole deltas
        to a lone worker task is pure overhead, so the closure must
        stay on the in-process path — and still agree with serial.
        """
        rules = (parse_rule("p(X, Y) :- p(X, Z), p(Z, Y)."),)
        initial = Relation.of("p", 2, [(i, i + 1) for i in range(12)])
        database = Database.of()
        reference_stats = EvaluationStatistics()
        reference = seminaive_closure(rules, initial, Database.of(),
                                      reference_stats)
        plans = [compile_rule(rule, database) for rule in rules]
        statistics = EvaluationStatistics()
        with ParallelEvaluator(plans, database,
                               packed_config("processes")) as evaluator:
            packed = evaluator.packed_closure(initial)
            assert packed is not None
            assert not packed._any_splittable
            assert not packed._parallel_ready(len(initial))
            while packed.delta_size():
                statistics.iterations += 1
                packed.step_seminaive(statistics)
            relation = packed.freeze()
            statistics.result_size = len(relation)
        assert relation.rows == reference.rows
        assert full_signature(statistics) == full_signature(reference_stats)

    def test_task_error_propagates_unchanged(self, monkeypatch):
        """A raising threads task reaches the caller on its first attempt.

        Its original type, each task run at most once, no retry, no
        degradation and no backoff sleep: nothing stands between a task
        and the caller.
        """
        attempts = []

        def failing_task(closure, rows, *rest):
            attempts.append(id(rows))
            raise ZeroDivisionError("task body")

        def no_sleep(seconds):
            raise AssertionError(f"slept {seconds}s")

        monkeypatch.setattr(PackedClosure, "_packed_thread_task",
                            failing_task)
        monkeypatch.setattr(time, "sleep", no_sleep)
        rules, database, initial = scenario_layered_tc()
        statistics = EvaluationStatistics()
        with pytest.raises(ZeroDivisionError, match="task body"):
            seminaive_closure(rules, initial, database, statistics,
                              config=packed_config("threads"))
        assert attempts
        assert len(attempts) == len(set(attempts))
        health = statistics.health
        assert health.task_retries == health.iteration_retries == 0
        assert health.degradations == []
        assert health.backend == "threads"


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


# ----------------------------------------------------------------------
# The striped thread sink
# ----------------------------------------------------------------------


class TestStripedPackedSink:
    def test_drain_is_union(self):
        sink = StripedPackedSink(4)
        sink.merge({1, 5, 9, 12})
        sink.merge({5, 13, 2})
        assert sink.drain() == {1, 2, 5, 9, 12, 13}

    def test_single_stripe(self):
        sink = StripedPackedSink(1)
        sink.merge({7, 8})
        sink.merge({8, 9})
        assert sink.drain() == {7, 8, 9}

    def test_concurrent_merges(self):
        from concurrent.futures import ThreadPoolExecutor

        sink = StripedPackedSink(4)
        chunks = [set(range(i, 4000, 7)) for i in range(7)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(sink.merge, chunks))
        expected = set()
        for chunk in chunks:
            expected |= chunk
        assert sink.drain() == expected
