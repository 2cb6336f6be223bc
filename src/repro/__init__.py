"""repro — a reproduction of "Commutativity and its Role in the Processing
of Linear Recursion" (Yannis E. Ioannidis, VLDB 1989 / JLP 1992).

The package implements, from scratch, a linear-recursion processing stack
for Datalog: the language core, conjunctive-query theory, a relational
storage and evaluation engine, the closed semi-ring of linear relational
operators, the a-graph analysis of Section 5, and — on top of those — the
paper's contribution: syntactic commutativity tests, commutativity-driven
decomposition, the separable algorithm, and recursive-redundancy-aware
evaluation.

Quickstart — materialise a closure::

    from repro import solve, Database, Relation

    program = '''
        path(X, Y) :- edge(X, Z), path(Z, Y).
        path(X, Y) :- edge(X, Y).
    '''
    database = Database.of(Relation.of("edge", 2, [(1, 2), (2, 3)]))
    closure = solve(program, database, config="interned")

Quickstart — answer queries (serving)::

    from repro import QueryEngine

    engine = QueryEngine(database, program)
    engine.ask("path(1, X)?").rows      # demand/label tiers, not full closure
    bool(engine.ask("path(1, 3)?"))     # ground membership

Quickstart — live updates (incremental maintenance + async serving)::

    from repro import LiveEngine

    engine = await LiveEngine(program, database).start()
    async with engine.transaction() as session:
        session.insert("edge", (3, 4))
        session.delete("edge", (1, 2))
    engine.ask("path(2, X)?")           # maintained, not recomputed

The strategy-analysis layer of the paper (commutativity,
separability, redundancy) lives behind
:class:`~repro.core.engine.RecursiveQueryEngine`::

    result = RecursiveQueryEngine().query(program, "path", database)
    print(result.plan.strategy, sorted(result.relation.rows))
"""

from repro.datalog import (
    Atom,
    Constant,
    Predicate,
    Program,
    Rule,
    Variable,
    parse_atom,
    parse_program,
    parse_rule,
)
from repro.storage import Database, Relation
from repro.storage.selection import EqualitySelection, PositionEqualitySelection, Selection
from repro.algebra import LinearOperator, SumOperator
from repro.agraph import AlphaGraph, classify_variables, render_ascii
from repro.core import (
    QueryPlan,
    QueryPlanner,
    QueryResult,
    RecursionAnalyzer,
    RecursiveQueryEngine,
    Strategy,
    commute,
    commute_by_definition,
    commute_polynomial,
    find_redundant_predicates,
    is_separable,
    sufficient_condition,
)
from repro.engine import EvalConfig, EvaluationStatistics, PlannerReport, solve
from repro.planner import explain_program, plan_program, planner_catalog
from repro.query import Query, QueryAnswer, QueryEngine, answer
from repro.ivm import ChangeSet, MaterializedProgram
from repro.durability import (
    Checkpoint,
    DurableCoordinator,
    DurableLog,
    DurableStore,
    RecoveryReport,
)
from repro.serve import (
    LiveEngine,
    ResultChange,
    Session,
    Snapshot,
    Subscription,
    subscribe,
)
from repro.exceptions import (
    AnalysisError,
    DatalogSyntaxError,
    EvaluationError,
    NotApplicableError,
    OverloadError,
    QueryTimeoutError,
    ReproError,
    RuleStructureError,
    SchemaError,
    StorageError,
)

__version__ = "1.0.0"

__all__ = [
    "AlphaGraph",
    "AnalysisError",
    "Atom",
    "ChangeSet",
    "Checkpoint",
    "Constant",
    "Database",
    "DatalogSyntaxError",
    "DurableCoordinator",
    "DurableLog",
    "DurableStore",
    "EqualitySelection",
    "EvalConfig",
    "EvaluationError",
    "EvaluationStatistics",
    "LinearOperator",
    "LiveEngine",
    "MaterializedProgram",
    "NotApplicableError",
    "OverloadError",
    "PlannerReport",
    "PositionEqualitySelection",
    "Predicate",
    "Program",
    "Query",
    "QueryAnswer",
    "QueryEngine",
    "QueryPlan",
    "QueryPlanner",
    "QueryResult",
    "QueryTimeoutError",
    "RecoveryReport",
    "RecursionAnalyzer",
    "RecursiveQueryEngine",
    "Relation",
    "ReproError",
    "ResultChange",
    "Rule",
    "RuleStructureError",
    "SchemaError",
    "Selection",
    "Session",
    "Snapshot",
    "StorageError",
    "Strategy",
    "Subscription",
    "SumOperator",
    "Variable",
    "answer",
    "classify_variables",
    "commute",
    "commute_by_definition",
    "commute_polynomial",
    "explain_program",
    "find_redundant_predicates",
    "is_separable",
    "parse_atom",
    "parse_program",
    "parse_rule",
    "plan_program",
    "planner_catalog",
    "render_ascii",
    "solve",
    "subscribe",
    "sufficient_condition",
    "__version__",
]
