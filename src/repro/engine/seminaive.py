"""Semi-naive fixpoint evaluation for linear recursion [Bancilhon 85].

For linear rules the semi-naive rewriting is exact: at iteration ``k`` the
recursive literal of each rule is evaluated against the *delta* (tuples
first derived at iteration ``k-1``) instead of the full relation, and the
newly derived tuples that are not already known become the next delta.

This module provides the raw closure (``closure of a sum of operators
applied to an initial relation``) and a convenience driver that first
evaluates the exit rules of a :class:`repro.datalog.programs.LinearRecursion`
to obtain the initial relation ``Q``.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.datalog.programs import LinearRecursion
from repro.datalog.rules import Rule
from repro.engine.parallel import (
    EvalConfig,
    ParallelEvaluator,
    record_collapsed_productions,
)
from repro.engine.plan import compile_rule
from repro.engine.statistics import EvaluationStatistics
from repro.engine.vectorized import execute_batch, execute_interned
from repro.exceptions import EvaluationError
from repro.planner.program import plan_program
from repro.storage.database import Database
from repro.storage.relation import Relation, RowSetBuilder


def seminaive_closure(rules: Iterable[Rule], initial: Relation, database: Database,
                      statistics: Optional[EvaluationStatistics] = None,
                      max_iterations: int = 100_000,
                      config: Optional[EvalConfig] = None) -> Relation:
    """Compute ``(Σ A_i)* initial`` by semi-naive iteration.

    Every successful derivation is recorded in *statistics*; a derivation
    of a tuple already present in the accumulated result (or already
    produced earlier in the same iteration) counts as a duplicate, which
    is exactly the in-degree accounting of Theorem 3.1.

    Each rule is compiled once (:func:`repro.engine.plan.compile_rule`)
    and executed against the per-iteration delta; indexes over the EDB
    relations persist across iterations in the database's cache, and the
    accumulated result lives in a :class:`RowSetBuilder` so each
    iteration costs ``O(|delta|)`` set maintenance, not ``O(|total|)``.

    *config* (:class:`repro.engine.parallel.EvalConfig`) selects the
    mode — ``rows`` (slot-at-a-time), ``batch`` (column-oriented,
    :mod:`repro.engine.vectorized`) or ``interned`` (the packed-id
    closure) — and, for ``interned``, the backend each iteration's delta
    is split across; the default is the serial row-at-a-time compiled
    path.  Result relations and derivation/duplicate statistics are
    identical for every combination.
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

    iterations = 0
    # The evaluator's supervisor logs every recovery action (retries,
    # pool rebuilds, degradations) onto this evaluation's health report.
    with ParallelEvaluator(plans, database, config,
                           health=statistics.health) as evaluator:
        packed = evaluator.packed_closure(initial)
        if packed is not None:
            # Interned execution on any backend: the whole loop runs on
            # packed integer ids and decodes to value rows exactly once.
            # Parallel backends split each iteration's delta across
            # workers (threads share the parent's accumulator through a
            # striped sink; processes exchange flat id buffers through
            # shared memory) and reduce Counter-free at the barrier.
            while packed.delta_size() and iterations < max_iterations:
                iterations += 1
                statistics.iterations += 1
                packed.step_seminaive(statistics)
            if iterations >= max_iterations and packed.delta_size():
                raise EvaluationError(
                    f"Semi-naive evaluation did not converge within "
                    f"{max_iterations} iterations"
                )
            total = packed.freeze()
            statistics.result_size = len(total)
            return total
        builder = RowSetBuilder(predicate_name, initial.arity, initial.rows)
        delta = initial
        while delta.rows and iterations < max_iterations:
            iterations += 1
            statistics.iterations += 1
            pairs = evaluator.execute_batch({predicate_name: delta}, statistics)
            produced = record_collapsed_productions(pairs, builder, statistics)
            new_rows = builder.add_all_new(produced)
            delta = Relation.from_canonical(predicate_name, initial.arity, new_rows)
    if iterations >= max_iterations and delta.rows:
        raise EvaluationError(
            f"Semi-naive evaluation did not converge within {max_iterations} iterations"
        )
    total = builder.freeze()
    statistics.result_size = len(total)
    return total


def evaluate_exit_rules(recursion: LinearRecursion, database: Database,
                        statistics: Optional[EvaluationStatistics] = None,
                        config: Optional[EvalConfig] = None) -> Relation:
    """Evaluate the exit (nonrecursive) rules to obtain the initial relation Q.

    When *config* selects the batch executor, the exit rules run
    column-at-a-time as well; emissions and join counters are identical
    either way.
    """
    statistics = statistics if statistics is not None else EvaluationStatistics()
    builder = RowSetBuilder(recursion.predicate.name, recursion.arity)
    mode = config.mode() if config is not None else "rows"
    for rule in recursion.exit_rules:
        statistics.rule_applications += 1
        plan = compile_rule(rule, database)
        if mode == "interned":
            pairs = execute_interned(plan, database, counters=statistics.joins)
            produced = {row for row, _ in pairs}
        elif mode == "batch":
            pairs = execute_batch(plan, database, counters=statistics.joins)
            produced = {row for row, _ in pairs}
        else:
            produced = set(plan.execute(database, counters=statistics.joins))
        builder.add_all_new(produced)
    return builder.freeze()


def solve_linear_recursion(recursion: LinearRecursion, database: Database,
                           statistics: Optional[EvaluationStatistics] = None,
                           max_iterations: int = 100_000,
                           config: Optional[EvalConfig] = None) -> Relation:
    """Solve ``P = A P ∪ Q`` for a whole linear recursion.

    The exit rules produce ``Q``; the recursive rules are then iterated
    with semi-naive evaluation.  *config* selects the mode
    (``rows``/``batch``/``interned``) for both phases and the backend of
    the recursive one.  Returns the minimal model restricted to the
    recursive predicate.
    """
    statistics = statistics if statistics is not None else EvaluationStatistics()
    initial = evaluate_exit_rules(recursion, database, statistics, config=config)
    return seminaive_closure(
        recursion.recursive_rules, initial, database, statistics, max_iterations,
        config=config,
    )
