"""The one-call evaluation surface: ``solve(program, database)``.

The stable top-level entry point for *materialising* a recursive
predicate — the counterpart of :class:`repro.query.QueryEngine`, which
*answers queries*.  Callers get the full closure without importing
driver internals; ``seminaive_closure``/``solve_linear_recursion``
remain the documented low-level tier for code that manages its own
recursion objects and statistics.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.datalog.atoms import Predicate
from repro.datalog.programs import Program
from repro.engine.parallel import EvalConfig
from repro.engine.seminaive import solve_linear_recursion
from repro.engine.statistics import EvaluationStatistics
from repro.exceptions import RuleStructureError
from repro.storage.database import Database
from repro.storage.relation import Relation


def _resolve_predicate(program: Program,
                       predicate: Union[Predicate, str, None]) -> Predicate:
    """The predicate to solve for: explicit, by name, or the unique IDB."""
    candidates = program.idb_predicates
    if isinstance(predicate, Predicate):
        return predicate
    if isinstance(predicate, str):
        named = [found for found in candidates if found.name == predicate]
        if not named:
            raise RuleStructureError(
                f"No rules define a predicate named {predicate!r}"
            )
        if len(named) > 1:
            raise RuleStructureError(
                f"Ambiguous predicate name {predicate!r}: "
                f"{sorted(str(found) for found in named)}"
            )
        return named[0]
    if len(candidates) != 1:
        raise RuleStructureError(
            f"solve() needs predicate= when the program defines "
            f"{len(candidates)} predicates: "
            f"{sorted(str(found) for found in candidates)}"
        )
    return next(iter(candidates))


def solve(program: Union[Program, str], database: Database,
          predicate: Union[Predicate, str, None] = None,
          config: Union[EvalConfig, str, None] = None,
          statistics: Optional[EvaluationStatistics] = None) -> Relation:
    """Materialise the closure of one linearly recursive predicate.

    *program* may be a parsed :class:`~repro.datalog.programs.Program`
    or Datalog text; *predicate* may be omitted when the program defines
    exactly one predicate; *config* may be an
    :class:`~repro.engine.parallel.EvalConfig` or a spec string such as
    ``"interned-processes"`` (see :meth:`EvalConfig.from_spec`).

    >>> from repro import Database, Relation, solve
    >>> database = Database.of(Relation.of("edge", 2, [(1, 2), (2, 3)]))
    >>> closure = solve(
    ...     "path(X, Y) :- edge(X, Z), path(Z, Y)."
    ...     "path(X, Y) :- edge(X, Y).",
    ...     database,
    ... )
    >>> sorted(closure.rows)
    [(1, 2), (1, 3), (2, 3)]

    Pass ``statistics=`` to inspect the run.  Every evaluation carries a
    :class:`~repro.engine.statistics.PlannerReport` naming the join
    orders it ran.  The greedy compile order is the only planner;
    ``costed`` and ``adaptive`` are accepted spellings of it:

    >>> from repro import EvaluationStatistics
    >>> stats = EvaluationStatistics()
    >>> _ = solve(
    ...     "path(X, Y) :- edge(X, Z), path(Z, Y)."
    ...     "path(X, Y) :- edge(X, Y).",
    ...     database,
    ...     config="rows-costed",
    ...     statistics=stats,
    ... )
    >>> stats.planner.mode
    'greedy'
    >>> len(stats.planner.rules)
    1
    """
    if isinstance(program, str):
        from repro.datalog.parser import parse_program
        program = parse_program(program)
    if isinstance(config, str):
        config = EvalConfig.from_spec(config)
    recursion = program.linear_recursion_of(_resolve_predicate(program, predicate))
    return solve_linear_recursion(
        recursion, database, statistics, config=config,
    )
