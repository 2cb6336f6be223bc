"""Seeded inputs: what each workload feeds the program under test.

A workload is a list of :class:`Scenario` objects — a Datalog program
as *text*, its base relations, a query stream and an update schedule —
and every workload drives the same four user calls over its scenarios
(``solve``, ``QueryEngine.ask``, ``LiveEngine`` commits,
``LiveEngine.open``).  What differs is the shape, chosen so that each
workload loads a different layer:

``tc_closure``
    One transitive closure over a layered DAG.  Nearly half of all
    derivations are duplicates, so dedup/merge in the join kernel does
    the work; parsing and planning do none; asks are served by the
    label index; deletes run DRed over a deep closure.
``wide5_closure``
    Four 5-ary rules whose ``mark<i>`` filters reject about half of all
    probes: the same ``engine`` layer used probe-bound and multi-rule,
    the only shape where interning width and packed keys matter; asks
    go through the magic rewrite.
``same_generation``
    The paper's same-generation program (a three-atom body, not the
    transitive-closure shape): the magic tier serves every bound ask,
    which is where demand rewriting has to beat materialisation.
``plan_bound``
    Sixteen small programs (the planner's skew families across a
    spread of sizes, random rule pairs, the paper's canonical
    programs), each parsed from text: fixed costs — parse, plan,
    compile, index build, engine start, fsync — dominate and the kernel
    does little.  The mirror image of ``tc_closure``.
``paper_strategy``
    The programs the paper's analysis rewrites: two-sided transitive
    closure (commuting, hence DECOMPOSED), the separable selection
    query (Algorithm 4.1) and the redundant ``buys`` recursion.  The
    only workload where ``core``/``cq``/``algebra``/``agraph`` choose
    anything but DIRECT.

What ``--seed`` does
--------------------
Every workload's *structure* is fixed (the generators run on
``STRUCTURE_SEED``, the seed every committed ``BENCH_*.json`` series
used); ``--seed`` draws a random relabelling of the whole active domain
and applies it to every relation, so two seeds give the program
different values — different hash, sort and interning orders — over
isomorphic data.  The work is therefore the same on every seed, which
is what lets a ten-seed spread measure the machine and not the
generator; and every *count* the program reports must be identical
across seeds (a count that moves under relabelling means the engine's
work depends on what the values are, not on how they join).

Queries and update rows are drawn *stratified* from the closure and
the base relation in canonical order (one per equal slice): in a
layered graph the cost of a lookup or a DRed delete depends on the
layer, so each round runs the same mix of cheap and expensive
operations.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.datalog.rules import Rule
from repro.engine.statistics import EvaluationStatistics
from repro.query import Query
from repro.storage.database import Database
from repro.storage.relation import Relation, Row
from repro.storage.selection import EqualitySelection, Selection
from repro.workloads import scenarios as paper
from repro.workloads.graphs import layered_dag_edges, random_graph_edges
from repro.workloads.relations import random_relation, random_unary_relation
from repro.workloads.rulegen import (
    hub_drift_program,
    random_commuting_pair,
    random_rule_pair,
    skewed_filter_program,
)
from repro.workloads.wide import wide5_workload, wide_multirule_workload

#: The structure seed of every workload (see the module docstring).
STRUCTURE_SEED = 11

TC_PROGRAM = (
    "path(X, Y) :- edge(X, Z), path(Z, Y).\n"
    "path(X, Y) :- edge(X, Y)."
)


@dataclass(frozen=True)
class Mix:
    """How many operations of each kind one round runs per scenario."""

    #: Warm asks (a quarter ground, half first-bound, a quarter last-bound).
    stream: int
    #: Unbound asks appended to the stream (closure tier).
    free: int
    #: Fresh-engine asks per adornment (bb, bf, fb).
    cold: int
    #: Single-row delete / re-insert pairs per live cycle.
    singles: int
    #: Ground asks after each re-insert.
    asks_per_commit: int
    #: Multi-row delete / re-insert pairs per live cycle, and their size.
    batches: int
    batch_rows: int
    #: Leading delete / re-insert pairs replayed through the crash
    #: directory (the recovery suffix is twice this many records).
    crash_singles: int


@dataclass
class Scenario:
    """One program, its data, and the operations a round runs on it."""

    name: str
    program: str
    predicate: str
    relations: dict[str, Relation]
    #: Base relation the update schedule mutates.
    mutable: str
    #: A binary base relation (the label-index probe builds over it).
    graph: str
    selection: Optional[Selection] = None
    #: Positions bound by the two half-bound adornments.
    half_bound: tuple[int, int] = (0, -1)
    #: Run on the parallel backends in the traced pass (one or two
    #: programs per workload: a process pool costs more to start than
    #: a small program takes to solve).
    parallel: bool = True
    #: Relabelled value -> the generator's value (see :func:`relabel`).
    canonical: dict[Any, Any] = field(default_factory=dict)
    # Filled by set-up once the expected closure is known: the closure,
    # the default solve's statistics, and what :meth:`prepare` derives.
    closure: Optional[Relation] = None
    expected: Optional[EvaluationStatistics] = None
    cold_queries: list[Query] = field(default_factory=list)
    stream: list[Query] = field(default_factory=list)
    live_queries: list[Query] = field(default_factory=list)
    singles: list[Row] = field(default_factory=list)
    crash_singles: list[Row] = field(default_factory=list)
    batches: list[list[Row]] = field(default_factory=list)

    def database(self) -> Database:
        """A fresh database: shared relation objects, cold caches."""
        return Database(dict(self.relations))

    def in_canonical_order(self, rows: Any) -> list[Row]:
        """*rows* sorted as the generator's own values would sort."""
        canonical = self.canonical
        return sorted(rows, key=lambda row: [canonical[v] for v in row])

    def prepare(self, closure: Relation, mix: Mix) -> None:
        """Derive the query stream and update schedule from *closure*.

        Drawn in canonical order with a fixed generator, so every seed
        schedules the same structural rows under different names.
        """
        rng = random.Random(STRUCTURE_SEED)
        self.closure = closure
        arity = closure.arity
        first, last = (position % arity for position in self.half_bound)
        rows = self.in_canonical_order(closure.rows)

        def bind(row: Row, *positions: int) -> Query:
            return Query.of(self.predicate, *(
                row[i] if i in positions else None for i in range(arity)))

        def ground(count: int) -> list[Query]:
            # Alternate members with near misses (last value swapped in
            # from another row), so both verdicts are served.
            picked = stratified(rows, count, rng)
            queries = []
            for index, row in enumerate(picked):
                if index % 2:
                    other = picked[index - 1]
                    row = (*row[:last], other[last], *row[last + 1:])
                queries.append(Query.of(self.predicate, *row))
            return queries

        quarter = max(1, mix.stream // 4)
        self.stream = (
            ground(quarter)
            + [bind(row, first) for row in
               stratified(rows, mix.stream - 2 * quarter, rng)]
            + [bind(row, last) for row in stratified(rows, quarter, rng)]
        )
        rng.shuffle(self.stream)
        self.stream += [bind(rows[0])] * mix.free if rows else []
        self.cold_queries = [
            query
            for row in stratified(rows, mix.cold, rng)
            for query in (Query.of(self.predicate, *row),
                          bind(row, first), bind(row, last))
        ]
        self.live_queries = ground(mix.singles * mix.asks_per_commit)
        stored = self.in_canonical_order(self.relations[self.mutable].rows)
        self.singles = stratified(stored, mix.singles, rng)
        # Evenly spaced, so the crash suffix keeps the cheap/expensive mix.
        step = max(1, len(self.singles) // max(1, mix.crash_singles))
        self.crash_singles = self.singles[::step][:mix.crash_singles]
        self.batches = [
            stratified(stored, mix.batch_rows, rng)
            for _ in range(mix.batches)
        ]


def stratified(items: Sequence[Any], count: int, rng: random.Random) -> list:
    """One item from each of *count* equal slices of *items*."""
    count = min(count, len(items))
    return [
        items[rng.randrange(i * len(items) // count,
                            (i + 1) * len(items) // count)]
        for i in range(count)
    ]


def relabel(scenario: Scenario, rng: random.Random) -> None:
    """Rename every value of *scenario* through a random bijection."""
    domain = sorted({value for relation in scenario.relations.values()
                     for row in relation.rows for value in row})
    images = rng.sample(domain, len(domain))
    forward = dict(zip(domain, images))
    scenario.relations = {
        name: Relation.of(name, relation.arity, [
            tuple(forward[value] for value in row) for row in relation.rows])
        for name, relation in scenario.relations.items()
    }
    if scenario.selection is not None:
        scenario.selection = EqualitySelection(
            scenario.selection.position, forward[scenario.selection.value])
    scenario.canonical = dict(zip(images, domain))


class AnswerOracle:
    """Expected answers: the full closure, filtered per adornment."""

    def __init__(self, closure: Relation):
        self.rows = closure.rows
        self._indexes: dict[tuple[int, ...], dict[tuple, set[Row]]] = {}

    def expected(self, query: Query) -> frozenset[Row]:
        positions = query.bound_positions
        if not positions:
            return self.rows
        index = self._indexes.get(positions)
        if index is None:
            index = defaultdict(set)
            for row in self.rows:
                index[tuple(row[p] for p in positions)].add(row)
            self._indexes[positions] = index
        return frozenset(index.get(tuple(query.bound_values), ()))


# ----------------------------------------------------------------------
# Builders: (sizes, seeded rng) -> scenarios
# ----------------------------------------------------------------------


def _as_program(rules: Sequence[Rule], database: Database,
                initial: Relation) -> tuple[str, str, dict[str, Relation]]:
    """Rules + seed relation as program text with an exit rule."""
    predicate = initial.name
    seed_name = f"{predicate}_seed"
    head = ", ".join(f"X{i}" for i in range(initial.arity))
    text = "\n".join(
        [str(rule) for rule in rules]
        + [f"{predicate}({head}) :- {seed_name}({head})."]
    )
    relations = dict(database.relations)
    relations[seed_name] = initial.renamed(seed_name)
    return text, predicate, relations


def _tc_closure(size: dict, rng: random.Random) -> list[Scenario]:
    edges = layered_dag_edges(size["layers"], size["width"], fanout=2,
                              name="edge", rng=rng)
    return [Scenario("tc", TC_PROGRAM, "path", {"edge": edges},
                     mutable="edge", graph="edge")]


def _wide5_closure(size: dict, rng: random.Random) -> list[Scenario]:
    # The smoke-test size uses the binary-head variant of the same
    # generator: analysing the four 5-ary rules costs about 0.3 s of
    # containment search per rule per analysis whatever the data size,
    # which alone is most of the smoke test's budget.
    generate = wide5_workload if size["arity"] == 5 else wide_multirule_workload
    text, predicate, relations = _as_program(
        *generate(size["layers"], size["width"], 4, rng=rng))
    # Position 1 carries the origin node through the closure: binding
    # it is the "who reaches from b" half of the mix.
    return [Scenario("wide5", text, predicate, relations, mutable="link0",
                     graph="link0", half_bound=(0, 1))]


def _same_generation(size: dict, rng: random.Random) -> list[Scenario]:
    layers, width = size["layers"], size["width"]
    up = layered_dag_edges(layers, width, fanout=2, name="up", rng=rng)
    mirror = layered_dag_edges(layers, width, fanout=2, name="down", rng=rng)
    down = Relation.of("down", 2, [(low, high) for high, low in mirror.rows])
    top = range((layers - 1) * width, layers * width)
    flat = Relation.of("flat", 2, [
        (left, right) for left in top for right in top
        if left == right or rng.random() < 0.25
    ])
    return [Scenario("sg", str(paper.same_generation_program()), "sg",
                     {"up": up, "down": down, "flat": flat},
                     mutable="up", graph="up")]


def _paper_strategy(size: dict, rng: random.Random) -> list[Scenario]:
    layers, width = size["layers"], size["width"]
    nodes = layers * width

    def dag(name: str) -> Relation:
        return layered_dag_edges(layers, width, fanout=2, name=name, rng=rng)

    identity = [(node, node) for node in range(nodes)]
    two_sided = Scenario(
        "two_sided_tc", str(paper.two_sided_transitive_closure_program()),
        "path",
        {"edge": dag("edge"), "hop": dag("hop"),
         "base": Relation.of("base", 2, identity)},
        mutable="edge", graph="edge")
    separable = Scenario(
        "separable", str(paper.separable_selection_program()), "reach",
        {"left": dag("left"), "right": dag("right"),
         "start": Relation.of("start", 2, identity)},
        mutable="left", graph="left", parallel=False,
        # A mid-graph source: a top node would select almost the whole
        # closure and a bottom one almost nothing.
        selection=EqualitySelection(0, nodes // 2))
    buys = Scenario(
        "redundant_buys", str(paper.redundant_buys_program()), "buys",
        {"knows": dag("knows"),
         "cheap": random_unary_relation("cheap", nodes * 9 // 10,
                                        domain_size=nodes, rng=rng),
         "likes": random_relation("likes", 2, nodes, domain_size=nodes,
                                  rng=rng)},
        mutable="knows", graph="knows", parallel=False)
    return [two_sided, separable, buys]


def _plan_bound(size: dict, rng: random.Random) -> list[Scenario]:
    built: list[Scenario] = []

    def add(name: str, text: str, predicate: str,
            relations: dict[str, Relation], mutable: str, graph: str) -> None:
        built.append(Scenario(name, text, predicate, relations,
                              mutable=mutable, graph=graph,
                              parallel=len(built) < 2))

    # The skew families, from half to four times the committed sizes
    # (BENCH_planner.json: chain 40 and 48).
    for chain in size["skew_chains"]:
        text, predicate, relations = _as_program(
            *skewed_filter_program(chain=chain))
        add(f"skewed_filter_{chain}", text, predicate, relations,
            "blow", "blow")
        text, predicate, relations = _as_program(
            *hub_drift_program(chain=chain * 6 // 5))
        add(f"hub_drift_{chain}", text, predicate, relations, "alt", "alt")

    def random_database(rules: Sequence[Rule], rows: int,
                        domain: int) -> Database:
        relations = {}
        for rule in rules:
            for atom in rule.body:
                name, arity = atom.predicate.name, atom.predicate.arity
                if name != rule.head.predicate.name and name not in relations:
                    relations[name] = random_relation(
                        name, arity, rows if arity > 1 else domain // 2,
                        domain_size=domain, rng=rng)
        return Database(relations)

    for index in range(size["rule_pairs"]):
        make = random_commuting_pair if index % 2 == 0 else (
            lambda arity, rng: random_rule_pair(arity, 2, rng))
        rules = make(3, rng)
        database = random_database(rules, size["pair_rows"], 8)
        initial = random_relation("p", 3, size["pair_rows"], domain_size=8,
                                  rng=rng)
        text, predicate, relations = _as_program(rules, database, initial)
        binary = sorted(name for name, relation in relations.items()
                        if relation.arity == 2)
        add(f"rule_pair_{index}", text, predicate, relations,
            binary[0], binary[0])

    nodes, edges = size["graph_nodes"], size["graph_edges"]

    def graph(name: str) -> Relation:
        return random_graph_edges(nodes, edges, name=name, rng=rng)

    identity = Relation.of("identity", 2, [(n, n) for n in range(nodes)])
    canonical: list[tuple[str, Callable, str, dict[str, Relation]]] = [
        ("two_sided_tc", paper.two_sided_transitive_closure_program, "path",
         {"edge": graph("edge"), "hop": graph("hop"),
          "base": identity.renamed("base")}),
        ("same_generation", paper.same_generation_program, "sg",
         {"up": graph("up"), "down": graph("down"),
          "flat": identity.renamed("flat")}),
        ("separable", paper.separable_selection_program, "reach",
         {"left": graph("left"), "right": graph("right"),
          "start": identity.renamed("start")}),
        ("redundant_buys", paper.redundant_buys_program, "buys",
         {"knows": graph("knows"), "likes": graph("likes"),
          "cheap": random_unary_relation("cheap", nodes * 3 // 4,
                                         domain_size=nodes, rng=rng)}),
        ("noncommuting", paper.noncommuting_program, "t",
         {"a": graph("a"), "b": graph("b"), "seed": identity.renamed("seed")}),
        ("tc", lambda: TC_PROGRAM, "path", {"edge": graph("edge")}),
    ]
    for name, program, predicate, relations in canonical[:size["canonical"]]:
        first = next(iter(relations))
        add(f"paper_{name}", str(program()), predicate, relations,
            first, first)
    return built


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[dict, random.Random], list[Scenario]]
    #: Input sizes: ``full`` is measured, ``small`` is the instance the
    #: interpreted reference engine cross-checks, ``tiny`` is the smoke test.
    sizes: dict[str, dict]
    mixes: dict[str, Mix]


_TINY_MIX = Mix(stream=4, free=0, cold=1, singles=2, asks_per_commit=1,
                batches=1, batch_rows=3, crash_singles=1)

WORKLOADS: dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload(
            "tc_closure",
            "TC over a 64x8 layered DAG (512 nodes, ~99k-tuple closure, ~45% "
            "duplicate derivations): join kernel and dedup do the work, "
            "labels serve asks, DRed deletes run deep",
            _tc_closure,
            {"full": {"layers": 64, "width": 8},
             "small": {"layers": 32, "width": 8},
             "tiny": {"layers": 6, "width": 4}},
            {"full": Mix(stream=400, free=2, cold=4, singles=6,
                         asks_per_commit=10, batches=1, batch_rows=24,
                         crash_singles=3),
             "tiny": _TINY_MIX},
        ),
        Workload(
            "wide5_closure",
            "wide5_workload(16, 16): 4 rules, 5-ary heads, mark filters "
            "rejecting half of all probes: probe-bound and multi-rule where "
            "tc_closure is dedup-bound; magic tier serves asks",
            _wide5_closure,
            {"full": {"layers": 16, "width": 16, "arity": 5},
             "small": {"layers": 8, "width": 8, "arity": 5},
             "tiny": {"layers": 4, "width": 4, "arity": 2}},
            {"full": Mix(stream=12, free=0, cold=2, singles=8,
                         asks_per_commit=1, batches=1, batch_rows=24,
                         crash_singles=8),
             "tiny": _TINY_MIX},
        ),
        Workload(
            "same_generation",
            "same-generation over 24x24 up/down/flat DAGs (~13k-tuple "
            "closure): not the TC shape, so every bound ask runs the magic "
            "rewrite instead of a label lookup",
            _same_generation,
            {"full": {"layers": 24, "width": 24},
             "small": {"layers": 10, "width": 10},
             "tiny": {"layers": 4, "width": 4}},
            {"full": Mix(stream=4, free=0, cold=1, singles=8,
                         asks_per_commit=1, batches=1, batch_rows=24,
                         crash_singles=8),
             "tiny": _TINY_MIX},
        ),
        Workload(
            "plan_bound",
            "16 small programs parsed from text (skewed_filter/hub_drift at "
            "0.5-4x the committed sizes, random rule pairs, the paper's "
            "programs): parse, plan, compile, index build and fsync dominate",
            _plan_bound,
            {"full": {"skew_chains": (20, 40, 80, 160), "rule_pairs": 4,
                      "pair_rows": 12, "graph_nodes": 24, "graph_edges": 48,
                      "canonical": 4},
             "small": {"skew_chains": (20, 40), "rule_pairs": 4,
                       "pair_rows": 12, "graph_nodes": 16, "graph_edges": 32,
                       "canonical": 4},
             "tiny": {"skew_chains": (6,), "rule_pairs": 0, "pair_rows": 8,
                      "graph_nodes": 8, "graph_edges": 12, "canonical": 0}},
            {"full": Mix(stream=4, free=0, cold=1, singles=2,
                         asks_per_commit=1, batches=1, batch_rows=6,
                         crash_singles=1),
             "tiny": _TINY_MIX},
        ),
        Workload(
            "paper_strategy",
            "two-sided TC (commuting, DECOMPOSED), the separable selection "
            "(Algorithm 4.1) and redundant buys on 20x8 layered DAGs: the "
            "only shapes where core analysis picks a rewrite over DIRECT",
            _paper_strategy,
            {"full": {"layers": 20, "width": 8},
             "small": {"layers": 12, "width": 8},
             "tiny": {"layers": 4, "width": 4}},
            {"full": Mix(stream=4, free=0, cold=1, singles=4,
                         asks_per_commit=1, batches=1, batch_rows=12,
                         crash_singles=4),
             "tiny": _TINY_MIX},
        ),
    )
}


def build(workload: str, seed: int, size: str = "full") -> list[Scenario]:
    """The scenarios of *workload* for *seed*, queries not yet derived."""
    spec = WORKLOADS[workload]
    scenarios = spec.build(spec.sizes[size], random.Random(STRUCTURE_SEED))
    rng = random.Random(seed)
    for scenario in scenarios:
        relabel(scenario, rng)
    return scenarios
