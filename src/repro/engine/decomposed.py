"""Decomposed evaluation of a commutative recursion:  ``(B + C)* Q = B* C* Q``.

When the operators of a linear recursion commute pairwise, the transitive
closure of their sum factors into a product of individual closures
(Section 3).  Evaluation then proceeds in phases: the closure of the last
group is applied to ``Q``, the next closure is applied to that result,
and so on.  Each phase is an ordinary semi-naive fixpoint over a smaller
operator, which is the source of the duplicate savings quantified by
Theorem 3.1.

The functions here do **not** verify commutativity; that is the planner's
job (:mod:`repro.core.planner`).  They simply execute a given phase order.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional, Sequence

from repro.datalog.rules import Rule
from repro.engine.parallel import EvalConfig
from repro.engine.seminaive import seminaive_closure
from repro.engine.statistics import EvaluationStatistics
from repro.storage.database import Database
from repro.storage.relation import Relation


def decomposed_closure(groups: Sequence[Iterable[Rule]], initial: Relation,
                       database: Database,
                       statistics: Optional[EvaluationStatistics] = None,
                       phase_names: Optional[Sequence[str]] = None,
                       config: Optional[EvalConfig] = None) -> Relation:
    """Evaluate ``G1* G2* ... Gk* initial`` phase by phase.

    ``groups[k-1]`` (the last group) is applied first, matching the
    algebraic convention that in a product the rightmost operator acts
    first: ``B* C* Q`` computes ``C* Q`` and then applies ``B*``.

    Each phase contributes a labelled sub-statistics entry to
    *statistics* (``phase-1`` is the first phase executed).  *config*
    (:class:`repro.engine.parallel.EvalConfig`) is forwarded to every
    phase's semi-naive closure, so the mode
    (``rows``/``batch``/``interned``) applies to all phases; all phases
    share one database and therefore one value-interning domain.
    Interned configurations run each phase as a packed-id closure.  The
    config's ``deadline``
    budgets the whole call: every phase counts from its start.
    """
    started = time.monotonic()
    statistics = statistics if statistics is not None else EvaluationStatistics()
    statistics.initial_size = len(initial)

    groups = [tuple(group) for group in groups]
    # Each phase's semi-naive closure compiles its rules on entry (plans
    # are cached by rule value) and all phases share the one database's
    # persistent EDB index cache.
    if phase_names is None:
        phase_names = [f"phase-{index + 1}" for index in range(len(groups))]
    if len(phase_names) != len(groups):
        raise ValueError("phase_names must have one entry per group")

    current = initial
    # Apply the rightmost group first.
    execution_order = list(reversed(list(zip(groups, phase_names))))
    for group, name in execution_order:
        phase_stats = EvaluationStatistics()
        current = seminaive_closure(group, current, database, phase_stats,
                                    config=config, started=started)
        statistics.add_phase(name, phase_stats)
    statistics.result_size = len(current)
    return current


def pairwise_decomposed_closure(first_group: Iterable[Rule], second_group: Iterable[Rule],
                                initial: Relation, database: Database,
                                statistics: Optional[EvaluationStatistics] = None,
                                config: Optional[EvalConfig] = None) -> Relation:
    """Evaluate ``B* C* initial`` where B = first_group and C = second_group."""
    return decomposed_closure(
        [tuple(first_group), tuple(second_group)], initial, database, statistics,
        phase_names=["B-closure", "C-closure"], config=config,
    )
