"""Join-order planning: the greedy compile order, reported and explained.

Every rule runs in the greedy compile-time order of
:mod:`repro.engine.plan` (the most constrained atom first, smaller
relations breaking ties).  :mod:`repro.planner.program` is the
driver-facing surface: :func:`plan_program` compiles a program and
attaches a :class:`~repro.engine.statistics.PlannerReport`,
:func:`explain_program` prints the orders and step plans together with
the commuting rule pairs (Theorem 5.2).

``EvalConfig(planner="costed"|"adaptive")`` and the spec tokens of the
same names are accepted spellings of ``"greedy"``: a cost model and
mid-fixpoint re-planning changed only join work, never results or
Theorem-3.1 counts, and lost to greedy in seconds on every measured
workload.  :func:`planner_catalog` is kept for the benchmark harness.
"""

from repro.planner.program import (
    commuting_pairs,
    explain_program,
    plan_program,
    planner_catalog,
)

__all__ = [
    "commuting_pairs",
    "explain_program",
    "plan_program",
    "planner_catalog",
]
