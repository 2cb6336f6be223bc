"""The driver-facing planner surface: plan a program, watch it run.

The fixpoint drivers (:mod:`repro.engine.seminaive`,
:mod:`repro.engine.naive`, and through them decomposed/separable) call
:func:`plan_program` instead of compiling greedily, and get back a
:class:`PlannerSession`:

* ``session.plans`` — the compiled plans, in rule order.  In ``greedy``
  mode these are exactly the plans the drivers always compiled; in
  ``costed``/``adaptive`` mode each rule's body order comes from the
  cost model (cold) or the statistics catalog (warm).
* ``session.after_iteration(...)`` — the adaptive re-planning hook, a
  cheap no-op outside adaptive mode.
* ``session.finish(statistics)`` — closes the loop: records the actual
  headline counters on the :class:`~repro.engine.statistics.PlannerReport`
  and feeds the executed orders back into the warm catalog.

Program-level analysis from :mod:`repro.core` is folded in here as plan
metadata: pairwise rule commutativity (Theorem 5.2's polynomial test)
is reported — commuting rules admit the decomposed phase evaluation the
paper builds on — and per-rule redundancy findings annotate the report
while biasing the order search (:mod:`repro.planner.search`).
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.datalog.rules import Rule
from repro.engine.parallel import PLANNERS
from repro.engine.plan import CompiledRule, compile_rule
from repro.engine.statistics import (
    EvaluationStatistics,
    PlannerReport,
    RulePlanInfo,
)
from repro.exceptions import NotApplicableError, RuleStructureError
from repro.planner.catalog import CATALOG
from repro.planner.cost import ProfileSource, estimate_order
from repro.planner.search import costed_body_order
from repro.storage.database import Database
from repro.storage.relation import Relation

class PlannerSession:
    """One evaluation's planning state (plans, report, adaptive hook)."""

    __slots__ = ("plans", "report", "mode", "rules", "_controller")

    def __init__(self, plans: list[CompiledRule], report: PlannerReport,
                 mode: str, rules: tuple[Rule, ...], controller: Any):
        self.plans = plans
        self.report = report
        self.mode = mode
        self.rules = rules
        self._controller = controller

    def after_iteration(self, evaluator: Any, packed: Any,
                        delta_size: int, total_size: int,
                        delta_rows: Optional[Any] = None) -> None:
        """Iteration-boundary hook; re-plans in adaptive mode only."""
        if self._controller is not None:
            self._controller.after_iteration(evaluator, packed, delta_size,
                                             total_size, delta_rows)
        elif self.mode != "greedy":
            self.report.record_iteration(delta_size, total_size)

    def finish(self, statistics: EvaluationStatistics) -> None:
        """Record actuals and feed the warm catalog (non-greedy modes)."""
        if self.mode == "greedy":
            return
        self.report.actual = {
            "derivations": statistics.derivations,
            "duplicates": statistics.duplicates,
            "iterations": statistics.iterations,
            "rows_probed": statistics.joins.rows_probed,
            "tuples_emitted": statistics.joins.tuples_emitted,
        }
        measured_cost = (statistics.joins.rows_probed
                         / max(1, statistics.derivations))
        for rule, info in zip(self.rules, self.report.rules):
            CATALOG.observe(rule, tuple(info.order), measured_cost)


def plan_program(rules: Iterable[Rule], database: Database,
                 config: Any, statistics: EvaluationStatistics,
                 initial: Optional[Relation] = None) -> PlannerSession:
    """Plan *rules* under ``config.planner`` and attach the report.

    *initial* sizes the recursive predicate for the cold cost model (the
    semi-naive delta starts as the initial relation) and names the
    delta-first lead constraint.  The returned session's plans are ready
    for the :class:`~repro.engine.parallel.ParallelEvaluator`.
    """
    rules = tuple(rules)
    mode = getattr(config, "planner", "greedy") if config is not None else "greedy"
    report = PlannerReport(mode=mode)
    statistics.planner = report
    if mode == "greedy":
        plans = [compile_rule(rule, database) for rule in rules]
        report.rules = [
            RulePlanInfo(rule=str(rule), order=plan.order, source="greedy")
            for rule, plan in zip(rules, plans)
        ]
        return PlannerSession(plans, report, mode, rules, None)

    predicate_name = initial.name if initial is not None else None
    hints = ({predicate_name: len(initial)}
             if initial is not None and predicate_name is not None else None)
    profiles = ProfileSource(database, hints=hints)
    plans = []
    for rule in rules:
        warm = CATALOG.suggest(rule)
        if warm is not None:
            order = warm.order
            estimate = estimate_order(rule.body, order, profiles)
            source = "warm"
        else:
            order, estimate, notes = costed_body_order(
                rule, profiles, lead_name=predicate_name,
            )
            source = "cold"
            for note in notes:
                report.notes.append(f"redundancy: {note}")
        plans.append(compile_rule(rule, database, order=order))
        report.rules.append(RulePlanInfo(
            rule=str(rule), order=order, source=source,
            estimated_cost=round(estimate.cost, 4),
            estimated_rows=round(estimate.rows, 4),
        ))
    for i, j in commuting_pairs(rules):
        report.notes.append(
            f"commute: rules {i} and {j} commute (Theorem 5.2)")
    controller = None
    if mode == "adaptive" and predicate_name is not None:
        from repro.planner.adaptive import AdaptiveController
        controller = AdaptiveController(rules, database, config, report,
                                        predicate_name)
    return PlannerSession(plans, report, mode, rules, controller)


def commuting_pairs(rules: Iterable[Rule]) -> tuple[tuple[int, int], ...]:
    """Index pairs of rules that commute (Theorem 5.2 polynomial test).

    Commuting rules admit the decomposed phase evaluation
    (:mod:`repro.core.decomposition`); the planner reports them so a
    caller can see the program-level plan space alongside the per-rule
    join orders.  Pairs outside the restricted class
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
    """Annotated plan text for a whole program under a planner mode.

    One block per rule: the chosen order (and its provenance/cost
    estimate outside greedy mode) followed by the per-step plan for the
    requested *executor* (``rows`` | ``batch`` | ``interned``, exactly
    as :meth:`repro.engine.plan.CompiledRule.explain`).  Commuting rule
    pairs and the adaptive trigger condition are appended when relevant.
    """
    rules = tuple(rules)
    statistics = EvaluationStatistics()
    session = plan_program(rules, database, config, statistics, initial)
    mode = session.mode
    lines = [f"planner: {mode}"]
    for index, (rule, info, plan) in enumerate(
            zip(rules, session.report.rules, session.plans)):
        lines.append(f"rule {index}: {rule}")
        detail = f"  order: {info.order} [{info.source}]"
        if info.estimated_cost is not None:
            detail += (f" est_cost={info.estimated_cost:.1f}"
                       f" est_rows={info.estimated_rows:.1f}")
        lines.append(detail)
        for step_line in plan.explain(executor).splitlines():
            lines.append(f"  {step_line}")
    for i, j in commuting_pairs(rules):
        lines.append(f"commute: rules {i} and {j} commute (Theorem 5.2); "
                     f"phase decomposition applies")
    if mode == "adaptive":
        ratio = getattr(config, "replan_ratio", 4.0)
        lines.append(f"adaptive: re-cost when delta/total drifts {ratio}x "
                     f"between iterations; swaps apply at iteration "
                     f"boundaries")
    return "\n".join(lines)
