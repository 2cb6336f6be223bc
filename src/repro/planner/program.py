"""The driver-facing planner surface: compile a program, report its orders.

The fixpoint drivers (:mod:`repro.engine.seminaive`,
:mod:`repro.engine.naive`, and through them decomposed/separable) call
:func:`plan_program` for their compiled plans.  Every plan uses the
greedy compile-time order of :mod:`repro.engine.plan`; the call also
attaches a :class:`~repro.engine.statistics.PlannerReport` naming each
rule's executed order to the evaluation's statistics.

Join order cannot change results or Theorem-3.1 derivation/duplicate
counts, only join work.  ``EvalConfig(planner="costed"|"adaptive")``
are accepted spellings of greedy.

Program-level analysis from :mod:`repro.core` appears in
:func:`explain_program`: pairwise rule commutativity (Theorem 5.2's
polynomial test) is reported, since commuting rules admit the
decomposed phase evaluation the paper builds on.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.datalog.rules import Rule
from repro.engine.plan import CompiledRule, compile_rule
from repro.engine.statistics import (
    EvaluationStatistics,
    PlannerReport,
    RulePlanInfo,
)
from repro.exceptions import NotApplicableError, RuleStructureError
from repro.storage.database import Database
from repro.storage.relation import Relation


def plan_program(rules: Iterable[Rule], database: Database,
                 config: Any, statistics: EvaluationStatistics,
                 initial: Optional[Relation] = None) -> list[CompiledRule]:
    """Compile *rules* greedily and attach the report to *statistics*.

    *config* and *initial* are accepted for the drivers' call shape; the
    greedy order needs neither (a cached plan is reused as is).
    """
    plans = [compile_rule(rule, database) for rule in rules]
    statistics.planner = PlannerReport(rules=[
        RulePlanInfo(rule=str(plan.rule), order=plan.order) for plan in plans
    ])
    return plans


def planner_catalog() -> dict:
    """An empty catalog, kept for the benchmark harness.

    The harness calls ``planner_catalog().clear()`` before timing a cold
    plan.  Greedy planning remembers nothing between evaluations, so
    there is nothing to clear.
    """
    return {}


def commuting_pairs(rules: Iterable[Rule]) -> tuple[tuple[int, int], ...]:
    """Index pairs of rules that commute (Theorem 5.2 polynomial test).

    Commuting rules admit the decomposed phase evaluation
    (:mod:`repro.core.decomposition`); the explain output reports them
    so a caller can see the program-level plan space alongside the
    per-rule join orders.  Pairs outside the restricted class
    (:class:`~repro.exceptions.NotApplicableError`) or not of the linear
    same-predicate shape the test needs
    (:class:`~repro.exceptions.RuleStructureError`) report nothing; any
    other error is a bug and propagates.
    """
    # Imported here: repro.core imports the drivers, which import this module.
    from repro.core.commutativity import commute_polynomial
    rules = tuple(rules)
    pairs: list[tuple[int, int]] = []
    for i in range(len(rules)):
        for j in range(i + 1, len(rules)):
            try:
                if commute_polynomial(rules[i], rules[j]):
                    pairs.append((i, j))
            except (NotApplicableError, RuleStructureError):
                continue
    return tuple(pairs)


def explain_program(rules: Iterable[Rule], database: Database,
                    config: Any = None, executor: str = "rows",
                    initial: Optional[Relation] = None) -> str:
    """Annotated plan text for a whole program.

    One block per rule: the chosen order followed by the per-step plan
    for the requested *executor* (``rows`` | ``batch`` | ``interned``,
    exactly as :meth:`repro.engine.plan.CompiledRule.explain`).
    Commuting rule pairs are appended.
    """
    rules = tuple(rules)
    statistics = EvaluationStatistics()
    plans = plan_program(rules, database, config, statistics, initial)
    report = statistics.planner
    assert report is not None
    lines = [f"planner: {report.mode}"]
    for index, (info, plan) in enumerate(zip(report.rules, plans)):
        lines.append(f"rule {index}: {info.rule}")
        lines.append(f"  order: {info.order}")
        for step_line in plan.explain(executor).splitlines():
            lines.append(f"  {step_line}")
    for i, j in commuting_pairs(rules):
        lines.append(f"commute: rules {i} and {j} commute (Theorem 5.2); "
                     f"phase decomposition applies")
    return "\n".join(lines)
