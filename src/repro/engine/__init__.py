"""Evaluation engine: conjunctive-query evaluation and recursive fixpoints.

The engine provides:

* :mod:`repro.engine.plan` — compiled rule plans (plan once / execute
  many): greedy atom order, slot-based bindings with trail undo, and the
  persistent per-database index cache; see ``src/repro/engine/README.md``
  for the compile/execute split and the cache-invalidation rules;
* :mod:`repro.engine.conjunctive` — evaluation of one rule body against a
  database (thin wrappers over the compiled path, plus the interpreted
  reference evaluator);
* :mod:`repro.engine.naive` and :mod:`repro.engine.seminaive` — the naive
  and semi-naive fixpoint baselines [Bancilhon 85];
* :mod:`repro.engine.statistics` — derivation/duplicate accounting in the
  model of Theorem 3.1;
* :mod:`repro.engine.derivation_graph` — the explicit derivation graph of
  Theorem 3.1;
* :mod:`repro.engine.decomposed` — decomposed evaluation ``B*C*Q`` enabled
  by commutativity;
* :mod:`repro.engine.separable` — the separable algorithm (Algorithm 4.1)
  with selection pushing;
* :mod:`repro.engine.vectorized` — the column-oriented batch executor:
  the same compiled step sequence lowered to batched hash-probe joins,
  vectorised equality filters and a fused, collapsing head projection
  (``EvalConfig(executor="batch")``), plus its interned specialisation
  over dictionary-encoded ids — ``array('q')`` columns, int-keyed
  payload probes and packed-integer head emission
  (``EvalConfig(executor="batch", intern=True)``);
* :mod:`repro.engine.parallel` — per-iteration execution of the
  compiled plans under an :class:`~repro.engine.parallel.EvalConfig`:
  the ``rows``/``batch`` loop, and the packed-id closure
  (``interned``) with its Counter-free Theorem-3.1 accounting;
* :mod:`repro.engine.faults` — the deterministic crash-injection plans
  (:class:`~repro.engine.faults.CrashPlan`) driving the durability
  layer's recovery-parity suite;
* join orders are the greedy compile-time order of
  :mod:`repro.engine.plan`; :mod:`repro.planner` reports and explains
  them, and every evaluation leaves a
  :class:`~repro.engine.statistics.PlannerReport` on its statistics;
* :mod:`repro.engine.api` — the stable one-call surface:
  :func:`~repro.engine.api.solve` materialises a predicate's closure
  from a program + database + config spec, so callers stop importing
  driver internals (the query-answering counterpart is
  :class:`repro.query.QueryEngine`).
"""

from repro.engine.api import solve

from repro.engine.statistics import (
    EvaluationStatistics,
    HealthReport,
    JoinCounters,
    PlannerReport,
    RulePlanInfo,
)
from repro.engine.plan import CompiledRule, compile_rule, greedy_body_order
from repro.engine.parallel import EvalConfig, Evaluator
from repro.engine.vectorized import execute_batch, execute_interned
from repro.engine.conjunctive import evaluate_rule
from repro.engine.naive import naive_closure
from repro.engine.seminaive import seminaive_closure, solve_linear_recursion
from repro.engine.decomposed import decomposed_closure
from repro.engine.separable import separable_evaluate
from repro.engine.derivation_graph import DerivationGraph, build_derivation_graph

__all__ = [
    "CompiledRule",
    "DerivationGraph",
    "EvalConfig",
    "EvaluationStatistics",
    "Evaluator",
    "HealthReport",
    "JoinCounters",
    "PlannerReport",
    "RulePlanInfo",
    "build_derivation_graph",
    "compile_rule",
    "decomposed_closure",
    "evaluate_rule",
    "execute_batch",
    "execute_interned",
    "greedy_body_order",
    "naive_closure",
    "seminaive_closure",
    "separable_evaluate",
    "solve",
    "solve_linear_recursion",
]
