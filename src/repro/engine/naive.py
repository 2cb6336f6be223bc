"""Naive fixpoint evaluation [Bancilhon 85].

The naive method recomputes every rule against the *entire* current value
of the recursive predicate at each iteration.  It is the least efficient
baseline and is included because the paper's duplicate-count argument
(Theorem 3.1 and Section 3.1) contrasts decomposed evaluation against both
naive and semi-naive strategies.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.datalog.rules import Rule
from repro.engine.parallel import (
    EvalConfig,
    ParallelEvaluator,
    record_collapsed_productions,
)
from repro.engine.statistics import EvaluationStatistics
from repro.exceptions import EvaluationError
from repro.planner.program import plan_program
from repro.storage.database import Database
from repro.storage.relation import Relation, RowSetBuilder


def naive_closure(rules: Iterable[Rule], initial: Relation, database: Database,
                  statistics: Optional[EvaluationStatistics] = None,
                  max_iterations: int = 10_000,
                  config: Optional[EvalConfig] = None) -> Relation:
    """Compute ``(Σ A_i)* initial`` by naive iteration.

    *rules* are linear recursive rules over the same predicate; *initial*
    is the relation ``Q`` of equation (2.3).  The result contains
    *initial* (the ``A^0 = 1`` term of the closure).

    Head-predicate validation happens once up front (consistent with
    :func:`repro.engine.seminaive.seminaive_closure`), not per iteration.
    Rules are compiled once and re-executed against the growing total;
    *config* (:class:`repro.engine.parallel.EvalConfig`) selects the
    mode (``rows``/``batch``/``interned``) and, for ``interned``, the
    backend each iteration's total is split across.
    """
    rules = tuple(rules)
    statistics = statistics if statistics is not None else EvaluationStatistics()
    statistics.initial_size = len(initial)
    predicate_name = initial.name

    for rule in rules:
        if rule.head.predicate.name != predicate_name:
            raise EvaluationError(
                f"Rule head {rule.head.predicate.name} does not match relation "
                f"{predicate_name}"
            )
        if rule.head.predicate.arity != initial.arity:
            raise EvaluationError(
                f"Rule head {rule.head.predicate} does not match the arity "
                f"{initial.arity} of relation {predicate_name}"
            )
    plans = plan_program(rules, database, config, statistics, initial)

    # The evaluator's supervisor logs every recovery action (retries,
    # pool rebuilds, degradations) onto this evaluation's health report.
    with ParallelEvaluator(plans, database, config,
                           health=statistics.health) as evaluator:
        packed = evaluator.packed_closure(initial)
        if packed is not None:
            # Interned execution on any backend: the accumulated total
            # stays in packed-id space.  On the serial backend its
            # interned view and indexes are maintained incrementally
            # from each iteration's new rows; the parallel backends
            # repartition the grown total across workers per iteration.
            for _ in range(max_iterations):
                statistics.iterations += 1
                fresh = packed.step_naive(statistics)
                if fresh == 0:
                    total = packed.freeze()
                    statistics.result_size = len(total)
                    return total
            raise EvaluationError(
                f"Naive evaluation did not converge within "
                f"{max_iterations} iterations"
            )
        builder = RowSetBuilder(predicate_name, initial.arity, initial.rows)
        total = initial
        for _ in range(max_iterations):
            statistics.iterations += 1
            pairs = evaluator.execute_batch({predicate_name: total}, statistics)
            produced = record_collapsed_productions(pairs, builder, statistics)
            new_rows = builder.add_all_new(produced)
            if not new_rows:
                statistics.result_size = len(total)
                return total
            total = builder.freeze()
    raise EvaluationError(
        f"Naive evaluation did not converge within {max_iterations} iterations"
    )
