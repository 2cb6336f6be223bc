"""The separable algorithm (Algorithm 4.1) with selection pushing.

Theorem 4.1: if operators ``A1`` and ``A2`` commute and a selection ``σ``
commutes with ``A1``, then ``σ (A1 + A2)* = A1* (σ A2*)``.  The separable
algorithm therefore evaluates a selection query over the sum of two
operators in two phases:

1. compute ``σ (A2* q)`` — if ``σ`` also commutes with ``A2`` this is
   computed as ``A2* (σ q)``, i.e. the selection is pushed all the way to
   the initial relation, which is the efficient form Naughton's algorithm
   exploits;
2. run an ordinary semi-naive closure of ``A1`` from that (small) result.

The direct baseline computes ``(A1 + A2)* q`` in full and applies the
selection at the end.  Comparing the two reproduces the efficiency claim
of Sections 4.1 and 6.1.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional

from repro.datalog.rules import Rule
from repro.engine.parallel import EvalConfig
from repro.engine.seminaive import seminaive_closure
from repro.engine.statistics import EvaluationStatistics
from repro.storage.database import Database
from repro.storage.relation import Relation
from repro.storage.selection import Selection


def separable_evaluate(outer_rules: Iterable[Rule], inner_rules: Iterable[Rule],
                       selection: Selection, initial: Relation, database: Database,
                       statistics: Optional[EvaluationStatistics] = None,
                       push_into_initial: bool = True,
                       config: Optional[EvalConfig] = None) -> Relation:
    """Evaluate ``σ (A_outer + A_inner)* initial`` by the separable strategy.

    ``outer_rules`` play the role of ``A1`` (the operator the selection
    commutes with); ``inner_rules`` play the role of ``A2``.  With
    ``push_into_initial=True`` the selection is applied to *initial*
    before the inner closure (valid when σ also commutes with the inner
    operator); otherwise the inner closure runs on the full initial
    relation and the selection is applied to its result, which is the
    literal reading of ``A1*(σ A2*)``.

    *config* (:class:`repro.engine.parallel.EvalConfig`) is forwarded to
    both phases' semi-naive closures, so the mode
    (``rows``/``batch``/``interned``) applies to both phases; interned
    configurations run each phase as a packed-id closure.  The config's ``deadline`` budgets the
    whole call: both phases count from its start.
    """
    started = time.monotonic()
    statistics = statistics if statistics is not None else EvaluationStatistics()
    statistics.initial_size = len(initial)

    outer_rules = tuple(outer_rules)
    inner_rules = tuple(inner_rules)
    # Both phases' closures compile their rules on entry (plans are cached
    # by rule value) and share the one database's EDB index cache.
    inner_stats = EvaluationStatistics()
    if push_into_initial:
        seeded = selection.apply(initial)
        inner_result = seminaive_closure(inner_rules, seeded, database, inner_stats,
                                         config=config, started=started)
        selected = inner_result
    else:
        inner_result = seminaive_closure(inner_rules, initial, database, inner_stats,
                                         config=config, started=started)
        selected = selection.apply(inner_result)
    statistics.add_phase("inner-closure", inner_stats)

    outer_stats = EvaluationStatistics()
    result = seminaive_closure(outer_rules, selected, database, outer_stats,
                               config=config, started=started)
    statistics.add_phase("outer-closure", outer_stats)

    statistics.result_size = len(result)
    return result


def direct_selection_evaluate(rules: Iterable[Rule], selection: Selection,
                              initial: Relation, database: Database,
                              statistics: Optional[EvaluationStatistics] = None,
                              config: Optional[EvalConfig] = None) -> Relation:
    """Baseline: compute the full closure, then apply the selection."""
    statistics = statistics if statistics is not None else EvaluationStatistics()
    closure = seminaive_closure(tuple(rules), initial, database, statistics,
                                config=config)
    result = selection.apply(closure)
    statistics.result_size = len(result)
    return result
