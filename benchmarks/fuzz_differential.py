"""Differential fuzzing: interpreted vs rows vs batch vs interned executors.

Generates random linear recursive programs — restricted-class rules from
:mod:`repro.workloads.rulegen` (single rules, independent pairs, and
Theorem-5.1 commuting pairs) plus a small pool of equality/constant rule
templates the generators cannot produce — over random EDBs, then runs
each program to fixpoint through four independent engines:

* **interpreted** — the seed reference loop
  (:func:`repro.engine.reference.seminaive_closure_interpreted`);
* **compiled** — the slot executor (``EvalConfig()`` default path);
* **batch** — the column-oriented executor
  (``EvalConfig(executor="batch")``);
* **interned** — the batch executor's int specialisation over
  dictionary-encoded ids (``EvalConfig(executor="batch", intern=True)``,
  which on this serial path runs the whole closure in packed-id space).

With ``--query-seeds N``, the first ``N`` seeds additionally fuzz the
query tier: for random bound/free adornments of the recursive
predicate, the magic-sets demand rewrite
(:func:`repro.query.magic.magic_rewrite`) is evaluated through the
rows, batch, and interned executors and its filtered answers must be
bit-identical to filtering the reference closure — the
demand-rewritten == full-closure-then-filtered invariant of the query
subsystem, checked on programs the hand-written parity tests cannot
enumerate.  Adornments with no stable bound position are recorded as
(correct) fallbacks, not failures.  The same seeds also run the
``DISCONNECTED_PROGRAMS`` family (rules holding atoms the connected
sideways pass drops) through :class:`~repro.query.QueryEngine`:
``auto == magic == closure`` answers on a cold engine, on one primed via
``prime_closure``, and on its ``with_database`` sibling after a relation
swap.

With ``--ivm-seeds N``, the first ``N`` seeds additionally fuzz the
incremental maintenance engine (:mod:`repro.ivm`): the generated
program gains a synthetic ``p_seed`` base relation and exit rule (so
the fuzzer's closure seeds become mutable EDB facts), one
:class:`~repro.ivm.MaterializedProgram` per serial executor is stepped
through a random schedule of insert/delete batches over every base
relation, and after **every** batch the maintained closure, the
derived derivation/duplicate counts and a random query answered
through a closure-primed :class:`~repro.query.QueryEngine` must be
bit-identical to a from-scratch recompute against the mutated EDB.

With ``--wal-seeds N``, the first ``N`` seeds additionally fuzz the
durability layer (:mod:`repro.durability`): a
:class:`~repro.durability.DurableCoordinator` over the same synthetic
program commits a random batch schedule under a seed-derived
:class:`~repro.engine.faults.CrashPlan` (torn WAL tails, checksum
corruption, kills inside the checkpoint install protocol), the
directory is re-opened, and the recovered closure, counters and base
relations must be bit-identical to an uncrashed twin that committed
exactly the durable prefix.  With ``--health-file``, each run's
recovery accounting is written out as a ``durable-wal`` entry of a JSON
artifact.

With ``--analysis-seeds N``, the first ``N`` seeds additionally fuzz
the paper's analysis for renaming invariance: the seed's rules (a
rulegen rule or pair, or a template) are put under one random bijective
renaming of their variables and non-equality predicates, and
:func:`~repro.core.redundancy.find_redundant_predicates` (predicate
names mapped back), :func:`~repro.algebra.properties.boundedness_witness`
and, for pairs, ``commute`` / ``commute_polynomial`` / ``is_separable``
must give the same answers on both.  The renamed run starts from an
empty witness memo and the original run is repeated after clearing it
again, so the memo's canonical-form key is checked against fresh
searches on both spellings; every memoised witness must also equal a
direct, unmemoised search on the rule as spelled.

All engines must agree on the result relation, the derivation count,
the duplicate count and the iteration count (the Theorem 3.1
accounting); any disagreement prints the offending seed and program and
fails the run, and with ``--failures-file`` every failing case (seed,
program, EDB summary, per-engine signature) is appended to the given
file so CI can upload it as a reproducible artifact.  CI runs a quick
seed set on every PR and a larger sweep nightly.

Usage::

    python benchmarks/fuzz_differential.py                 # default seed set
    python benchmarks/fuzz_differential.py --seeds 200     # nightly sweep
    python benchmarks/fuzz_differential.py --base-seed 7   # shift the set
    python benchmarks/fuzz_differential.py --query-seeds 25
                                                           # + magic-vs-reference
                                                           # query parity
    python benchmarks/fuzz_differential.py --ivm-seeds 10  # + maintained-vs-
                                                           # recomputed parity
    python benchmarks/fuzz_differential.py --analysis-seeds 40
                                                           # + analysis renaming
                                                           # invariance
    python benchmarks/fuzz_differential.py --wal-seeds 5 \
        --health-file recovery-health.json                 # + crash recovery
    python benchmarks/fuzz_differential.py --failures-file fuzz-failures.txt
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys
import tempfile

_SRC = pathlib.Path(__file__).parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.datalog.atoms import Atom, Predicate  # noqa: E402
from repro.datalog.parser import parse_program, parse_rule  # noqa: E402
from repro.datalog.programs import Program  # noqa: E402
from repro.datalog.rules import Rule  # noqa: E402
from repro.datalog.terms import Variable  # noqa: E402
from repro.durability import DurableCoordinator  # noqa: E402
from repro.engine.faults import CrashPlan, SimulatedCrash  # noqa: E402
from repro.engine.parallel import EvalConfig  # noqa: E402
from repro.engine.reference import seminaive_closure_interpreted  # noqa: E402
from repro.engine.seminaive import seminaive_closure  # noqa: E402
from repro.engine.statistics import EvaluationStatistics  # noqa: E402
from repro.datalog.programs import LinearRecursion  # noqa: E402
from repro.algebra.properties import (  # noqa: E402
    _canonical_witness,
    boundedness_witness,
    default_horizon,
)
from repro.core.commutativity import commute, commute_polynomial  # noqa: E402
from repro.core.redundancy import find_redundant_predicates  # noqa: E402
from repro.core.separability import is_separable  # noqa: E402
from repro.engine.api import solve  # noqa: E402
from repro.exceptions import NotApplicableError, RuleStructureError  # noqa: E402
from repro.ivm import MaterializedProgram  # noqa: E402
from repro.query import Query, QueryEngine, magic_rewrite  # noqa: E402
from repro.storage.database import Database  # noqa: E402
from repro.storage.relation import Relation  # noqa: E402
from repro.workloads.rulegen import (  # noqa: E402
    random_commuting_pair,
    random_restricted_rule,
    random_rule_pair,
)

#: Hand-written shapes outside the rulegen class: equality atoms,
#: constants, repeated variables.  ``{c}`` is filled with a random
#: domain value per seed.
TEMPLATES = (
    "p(X, Y) :- p(U, Y), q0(X, U), X = {c}.",
    "p(X, Y) :- p(X, V), q0(V, Y), V = Y.",
    "p(X, Y) :- p(U, V), q0(U, X), q0(V, Y).",
    "p(X, X) :- p(U, X), q0(U, U).",
    "p(X, Y) :- p(U, Y), q0(U, X), r0(X, X).",
)


def generate_rules(rng: random.Random) -> tuple[Rule, ...]:
    """A random linear recursive program over the predicate ``p``."""
    kind = rng.choice(("single", "pair", "commuting", "template"))
    if kind == "single":
        arity = rng.randint(1, 3)
        return (random_restricted_rule(arity, rng.randint(1, 3), rng),)
    if kind == "pair":
        arity = rng.randint(1, 3)
        return random_rule_pair(arity, rng.randint(1, 2), rng)
    if kind == "commuting":
        return random_commuting_pair(rng.randint(1, 3), rng)
    template = rng.choice(TEMPLATES)
    return (parse_rule(template.format(c=rng.randint(0, 3))),)


def generate_database(rules: tuple[Rule, ...], rng: random.Random,
                      domain: int) -> tuple[Database, Relation]:
    """A random EDB for every non-recursive body predicate, plus the seed."""
    predicates: dict[str, int] = {}
    head = rules[0].head.predicate
    for rule in rules:
        for atom in rule.body:
            if atom.is_equality() or atom.predicate.name == head.name:
                continue
            predicates[atom.predicate.name] = atom.predicate.arity
    relations = []
    for name in sorted(predicates):
        arity = predicates[name]
        count = rng.randint(0, 2 * domain)
        rows = {
            tuple(rng.randrange(domain) for _ in range(arity))
            for _ in range(count)
        }
        relations.append(Relation.of(name, arity, rows))
    seed_count = rng.randint(1, domain)
    seed_rows = {
        tuple(rng.randrange(domain) for _ in range(head.arity))
        for _ in range(seed_count)
    }
    initial = Relation.of(head.name, head.arity, seed_rows)
    return Database.of(*relations), initial


def signature(relation: Relation, statistics: EvaluationStatistics):
    return (
        relation.rows,
        statistics.derivations,
        statistics.duplicates,
        statistics.iterations,
    )


#: Configs for the query-parity leg (the query leg fuzzes the
#: *rewrite*, so one config per executor).
_QUERY_CONFIGS: tuple[tuple[str, EvalConfig | None], ...] = (
    ("rows", None),
    ("batch", EvalConfig(executor="batch")),
    ("interned", EvalConfig(executor="batch", intern=True)),
)


def check_queries(rules: tuple[Rule, ...], database: Database,
                  initial: Relation, reference: Relation,
                  rng: random.Random) -> list[str]:
    """Magic-rewritten answers vs filtering the reference closure.

    Fuzzes a few random adornments of the recursive predicate: bound
    values are drawn from the closure's own columns (so queries usually
    have answers) or at random (so empty demand is covered too).
    Returns mismatch descriptions; adornments with no stable bound
    position fall back to full closure by design and are skipped.
    """
    predicate = rules[0].head.predicate
    recursion = LinearRecursion(predicate, rules, ())
    reference_rows = sorted(reference.rows)
    mismatches: list[str] = []
    for _ in range(3):
        bound = sorted(rng.sample(range(predicate.arity),
                                  rng.randint(1, predicate.arity)))
        if reference_rows and rng.random() < 0.8:
            row = rng.choice(reference_rows)
            values = {position: row[position] for position in bound}
        else:
            values = {position: rng.randrange(7) for position in bound}
        query = Query.of(predicate.name, *[
            values.get(position) for position in range(predicate.arity)
        ])
        expected = query.filter(reference).rows
        try:
            magic = magic_rewrite(recursion, query.bound_positions,
                                  reserved_names=database.names())
        except NotApplicableError:
            continue  # nothing stable: full closure is the documented plan
        # The rewrite may stabilise to a subset of the query's bound
        # positions; the seed carries exactly the surviving ones.
        seed_values = tuple(
            values[position] for position in magic.bound_positions
        )
        for label, config in _QUERY_CONFIGS:
            demanded = magic.solve(
                seed_values, Database(dict(database.relations)),
                initial=initial, config=config,
            )
            answered = query.filter(demanded).rows
            if answered != expected:
                mismatches.append(
                    f"query {query} [{label}]: {len(answered)} answers != "
                    f"{len(expected)} expected"
                )
    return mismatches


#: Whole programs whose recursive rules hold nonrecursive atoms that
#: share no variable with the bound side of some adornment — the atoms
#: connected sideways passing drops from the magic rules: the paper's
#: same-generation, two-sided transitive closure, and a 3-ary rule with
#: an unrelated unary filter.
DISCONNECTED_PROGRAMS = (
    "sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).\n"
    "sg(X, Y) :- flat(X, Y).",
    "path(X, Y) :- edge(X, U), path(U, Y).\n"
    "path(X, Y) :- path(X, V), hop(V, Y).\n"
    "path(X, Y) :- base(X, Y).",
    "w(A, B, C) :- r(A, D), w(D, B, E), t(E, C), mark(F).\n"
    "w(A, B, C) :- s(A, B, C).",
)


def _tier_mismatches(engine: QueryEngine, queries: list[Query],
                     reference: Relation, label: str) -> list[str]:
    """``auto``/``magic``/``closure`` answers of *engine* vs the filter."""
    mismatches = []
    for query in queries:
        expected = query.filter(reference).rows
        for strategy in ("auto", "magic", "closure"):
            try:
                answered = engine.ask(query, strategy=strategy).rows
            except NotApplicableError:
                continue  # forced magic with no stable bound position
            if answered != expected:
                mismatches.append(
                    f"{label} {query} [{strategy}]: {len(answered)} answers "
                    f"!= {len(expected)} expected"
                )
    return mismatches


def check_disconnected(rng: random.Random) -> list[str]:
    """Tier parity on the :data:`DISCONNECTED_PROGRAMS` family.

    Every tier must return the filtered closure on a cold engine, on an
    engine holding a closure primed via ``prime_closure`` (the serving
    layer's state: membership tests and closure indexes), and on that
    engine's ``with_database`` sibling after one relation swap (the
    held closure and its indexes must go, and only then).
    """
    mismatches: list[str] = []
    for text in DISCONNECTED_PROGRAMS:
        program = parse_program(text)
        rules = tuple(program.rules)
        predicate = rules[0].head.predicate
        domain = rng.randint(3, 7)
        database, _ = generate_database(rules, rng, domain)
        swapped = rng.choice(sorted(database.names()))
        arity = database.relation(swapped).arity
        changed = database.with_relation(Relation.of(swapped, arity, {
            tuple(rng.randrange(domain) for _ in range(arity))
            for _ in range(rng.randint(0, 2 * domain))
        }))
        before = solve(program, database, predicate.name)
        after = solve(program, changed, predicate.name)

        queries = []
        rows = sorted(before.rows | after.rows)
        for _ in range(4):
            bound = rng.sample(range(predicate.arity),
                               rng.randint(1, predicate.arity))
            row = (rng.choice(rows) if rows and rng.random() < 0.8 else
                   tuple(rng.randrange(domain) for _ in range(predicate.arity)))
            queries.append(Query.of(predicate.name, *[
                row[position] if position in bound else None
                for position in range(predicate.arity)
            ]))

        mismatches += _tier_mismatches(
            QueryEngine(database, program), queries, before,
            f"{predicate.name} cold")
        primed = QueryEngine(database, program)
        primed.prime_closure(predicate, before)
        mismatches += _tier_mismatches(
            primed, queries, before, f"{predicate.name} primed")
        mismatches += _tier_mismatches(
            primed.with_database(changed), queries, after,
            f"{predicate.name} sibling after swapping {swapped}")
    return mismatches


def rename_bijectively(rules: tuple[Rule, ...], rng: random.Random
                       ) -> tuple[tuple[Rule, ...], dict[str, str]]:
    """*rules* under one random bijective renaming of their variables and
    of every predicate but equality; returns the renamed rules and the
    map from new predicate names back to the old ones."""
    variables = sorted({var for rule in rules for var in rule.variables()})
    predicates = sorted({atom.predicate for rule in rules
                         for atom in (rule.head, *rule.body)
                         if not atom.is_equality()})
    variable_names = [f"R{index}" for index in range(len(variables))]
    predicate_names = [f"s{index}" for index in range(len(predicates))]
    rng.shuffle(variable_names)
    rng.shuffle(predicate_names)
    variable_map = {old: Variable(new)
                    for old, new in zip(variables, variable_names)}
    predicate_map = {old: Predicate(new, old.arity)
                     for old, new in zip(predicates, predicate_names)}

    def rename(atom: Atom) -> Atom:
        return Atom(predicate_map.get(atom.predicate, atom.predicate),
                    tuple(variable_map.get(term, term)
                          for term in atom.arguments))

    renamed = tuple(Rule(rename(rule.head), tuple(map(rename, rule.body)))
                    for rule in rules)
    return renamed, {new.name: old.name for old, new in predicate_map.items()}


def _outcome(compute):
    """*compute()*, or the name of the analysis error it raised."""
    try:
        return compute()
    except (NotApplicableError, RuleStructureError) as error:
        return type(error).__name__


def analysis_signature(rules: tuple[Rule, ...], name_back=lambda name: name):
    """What the paper's analysis says about *rules*, in renaming-free terms.

    *name_back* maps reported predicate names to the caller's spelling.
    """
    signature: list = []
    for rule in rules:
        signature.append(_outcome(lambda: sorted(
            (name_back(finding.predicate_name), finding.witness.low,
             finding.witness.high, finding.witness.equal)
            for finding in find_redundant_predicates(rule))))
        signature.append(_outcome(lambda: boundedness_witness(rule)))
        signature.append(_outcome(
            lambda: boundedness_witness(rule, require_equality=True)))
    if len(rules) == 2:
        first, second = rules
        signature.append(_outcome(lambda: commute(first, second)))
        signature.append(_outcome(lambda: commute_polynomial(first, second)))
        report = _outcome(lambda: is_separable(first, second))
        signature.append(report if isinstance(report, str) else (
            report.condition_1, report.condition_2, report.condition_3,
            report.condition_4, report.disjoint_nonrecursive_variables))
    return signature


def _direct_witness(rule: Rule, require_equality: bool = False):
    """The power search on *rule* as spelled: no memo, no canonical form."""
    return _canonical_witness.__wrapped__(rule, default_horizon(rule),
                                          require_equality)


def check_analysis(rules: tuple[Rule, ...], rng: random.Random) -> list[str]:
    """Renaming invariance of the analysis, memo cleared and warm.

    The renamed rules are analysed from an empty witness memo, the
    original rules then hit the entries the renamed run stored, and the
    original rules are analysed once more after clearing the memo.
    Every memoised witness — of each rule and of each redundancy
    finding's wide rule — must also equal a direct search on the rule
    as spelled, which a too-coarse canonical form would fail.
    """
    renamed, names_back = rename_bijectively(rules, rng)
    boundedness_witness.cache_clear()
    fresh_renamed = analysis_signature(renamed, names_back.__getitem__)
    warm = analysis_signature(rules)
    boundedness_witness.cache_clear()
    fresh = analysis_signature(rules)
    mismatches = []
    if fresh_renamed != fresh:
        mismatches.append(
            f"analysis differs under a bijective renaming "
            f"({'; '.join(map(str, renamed))}): {fresh_renamed} != {fresh}")
    if warm != fresh:
        mismatches.append(
            f"analysis through the warm witness memo differs from a fresh "
            f"one: {warm} != {fresh}")
    checked = [(rule, equality) for rule in (*rules, *renamed)
               for equality in (False, True)]
    for rule in (*rules, *renamed):
        findings = _outcome(lambda: find_redundant_predicates(rule))
        if not isinstance(findings, str):
            checked += [(finding.wide_rule, False) for finding in findings]
    for rule, equality in checked:
        memoised = _outcome(lambda: boundedness_witness(
            rule, require_equality=equality))
        direct = _outcome(lambda: _direct_witness(rule, equality))
        if memoised != direct:
            mismatches.append(
                f"memoised witness {memoised} != direct search {direct} "
                f"for {rule} (require_equality={equality})")
    return mismatches


#: Serial executor configs the IVM leg steps in lockstep; maintenance
#: must be bit-identical to recompute on each of them.
_IVM_CONFIGS: tuple[tuple[str, EvalConfig | None], ...] = (
    ("rows", None),
    ("batch", EvalConfig(executor="batch")),
    ("interned", EvalConfig(executor="batch", intern=True)),
)


def check_ivm(rules: tuple[Rule, ...], database: Database,
              initial: Relation, rng: random.Random,
              max_iterations: int) -> list[str]:
    """Maintained closures vs from-scratch recompute, batch by batch.

    The fuzzer's programs seed their fixpoints from an explicit initial
    relation rather than exit rules, so the program handed to the
    maintenance engine gains a synthetic ``<p>_seed`` base relation
    holding those rows plus the copying exit rule — which makes the
    seeds themselves mutable EDB facts, and exercises the counting of
    exit supports alongside the recursive ones.
    """
    head = rules[0].head.predicate
    program, base = _synthetic_program(rules, database, initial)

    try:
        maintained = [
            (label, MaterializedProgram(program, base, config,
                                        max_iterations=max_iterations))
            for label, config in _IVM_CONFIGS
        ]
    except Exception as error:  # noqa: BLE001 - report, don't crash the sweep
        return [f"ivm cold start failed: {error!r}"]

    mutable = sorted(base.relations)
    domain = 7
    mismatches: list[str] = []
    for step in range(6):
        inserts: dict[str, set] = {}
        deletes: dict[str, set] = {}
        for name in rng.sample(mutable, rng.randint(1, len(mutable))):
            stored = maintained[0][1].working.relation(name)
            arity = stored.arity
            if stored.rows and rng.random() < 0.7:
                deletes[name] = set(rng.sample(
                    sorted(stored.rows),
                    rng.randint(1, min(2, len(stored.rows)))))
            inserts[name] = {
                tuple(rng.randrange(domain) for _ in range(arity))
                for _ in range(rng.randint(0, 2))
            }
        for label, materialized in maintained:
            try:
                materialized.apply(inserts=inserts, deletes=deletes)
            except Exception as error:  # noqa: BLE001
                mismatches.append(
                    f"ivm step {step} [{label}]: apply raised {error!r}")
                return mismatches

        cold_stats = EvaluationStatistics()
        snapshot = maintained[0][1].snapshot()
        cold = solve(program, snapshot, head, statistics=cold_stats,
                     config=None)
        expected = (cold.rows, cold_stats.derivations, cold_stats.duplicates,
                    cold_stats.initial_size, cold_stats.result_size)
        for label, materialized in maintained:
            live = materialized.closure(head)
            stats = materialized.statistics(head)
            got = (live.rows, stats.derivations, stats.duplicates,
                   stats.initial_size, stats.result_size)
            if got != expected:
                mismatches.append(
                    f"ivm step {step} [{label}]: maintained "
                    f"(rows={len(got[0])}, d={got[1]}, dup={got[2]}, "
                    f"init={got[3]}, size={got[4]}) != recomputed "
                    f"(rows={len(expected[0])}, d={expected[1]}, "
                    f"dup={expected[2]}, init={expected[3]}, "
                    f"size={expected[4]})"
                )
        if mismatches:
            return mismatches

        # One random query per batch through a closure-primed engine —
        # the snapshot path the serving layer publishes.
        engine = QueryEngine(snapshot, program)
        engine.prime_closure(head, maintained[0][1].closure(head))
        bound = rng.sample(range(head.arity),
                           rng.randint(0, head.arity))
        row = rng.choice(sorted(cold.rows)) if cold.rows else None
        query = Query.of(head.name, *[
            (row[position] if row is not None and rng.random() < 0.8
             else rng.randrange(domain)) if position in bound else None
            for position in range(head.arity)
        ])
        answered = engine.ask(query).rows
        expected_rows = query.filter(cold).rows
        if answered != expected_rows:
            mismatches.append(
                f"ivm step {step} query {query}: {len(answered)} answers "
                f"!= {len(expected_rows)} expected"
            )
            return mismatches
    return mismatches


def _synthetic_program(rules: tuple[Rule, ...], database: Database,
                       initial: Relation) -> tuple[Program, Database]:
    """The fuzzer's (rules, seed relation) as a maintainable program.

    Same construction as :func:`check_ivm`: the explicit initial
    relation becomes a ``<p>_seed`` base relation plus a copying exit
    rule, so the whole EDB — seeds included — is mutable.
    """
    head = rules[0].head.predicate
    seed_name = head.name + "_seed"
    variables = tuple(Variable(f"V{index}") for index in range(head.arity))
    exit_rule = Rule(
        Atom(head, variables),
        (Atom(Predicate(seed_name, head.arity), variables),),
    )
    program = Program((*rules, exit_rule))
    base = Database(dict(database.relations))
    base._replace_relation_unchecked(
        Relation.of(seed_name, head.arity, initial.rows))
    return program, base


def check_wal(rules: tuple[Rule, ...], database: Database,
              initial: Relation, rng: random.Random,
              max_iterations: int, seed: int,
              health_sink: list | None = None) -> list[str]:
    """Crash-recovery parity: a durable engine under a planned crash.

    Drives a :class:`~repro.durability.DurableCoordinator` through a
    random batch schedule with a seed-derived
    :class:`~repro.engine.faults.CrashPlan` (WAL tears, checksum
    corruption, kills inside the checkpoint protocol).  After the crash
    the directory is re-opened and the recovered state — closure rows,
    Theorem-3.1 counters, base relations, generation — must be
    bit-identical to an uncrashed twin that committed exactly the
    durable prefix ``batches[:recovered_generation]``.
    """
    head = rules[0].head.predicate
    program, base = _synthetic_program(rules, database, initial)
    try:
        twin = MaterializedProgram(program, Database(dict(base.relations)),
                                   max_iterations=max_iterations)
    except Exception as error:  # noqa: BLE001 - report, don't crash the sweep
        return [f"wal cold start failed: {error!r}"]

    # Pre-draw the whole batch schedule against the twin so the durable
    # run replays the exact same mutations.
    mutable = sorted(base.relations)
    domain = 7
    batches: list[tuple[dict, dict]] = []
    for _ in range(6):
        inserts: dict[str, set] = {}
        deletes: dict[str, set] = {}
        for name in rng.sample(mutable, rng.randint(1, len(mutable))):
            stored = twin.working.relation(name)
            if stored.rows and rng.random() < 0.7:
                deletes[name] = set(rng.sample(
                    sorted(stored.rows),
                    rng.randint(1, min(2, len(stored.rows)))))
            inserts[name] = {
                tuple(rng.randrange(domain) for _ in range(stored.arity))
                for _ in range(rng.randint(0, 2))
            }
        # Only schedule batches that change something: no-op batches
        # are never logged, so keeping them would break the
        # generation == batch-index alignment the parity check uses.
        if twin.apply(inserts=inserts, deletes=deletes):
            batches.append((inserts, deletes))

    def fingerprint(state) -> tuple:
        return (
            state.generation,
            {name: relation.rows
             for name, relation in state.working.relations.items()},
            state.closure(head).rows,
            state.statistics(head).as_dict(),
        )

    plan = CrashPlan.from_seed(seed)
    checkpoint_every = rng.choice((0, 2, 3))
    sync = rng.choice(("always", "batch"))
    mismatches: list[str] = []
    with tempfile.TemporaryDirectory(prefix="fuzz-wal-") as root:
        path = str(pathlib.Path(root) / "db")
        coordinator = None
        crashed = False
        try:
            coordinator = DurableCoordinator.open(
                path, program, Database(dict(base.relations)),
                max_iterations=max_iterations, sync=sync,
                checkpoint_every=checkpoint_every, crash_plan=plan,
            )
            for inserts, deletes in batches:
                coordinator.apply(inserts=inserts, deletes=deletes)
            coordinator.close()
        except SimulatedCrash:
            crashed = True
            if coordinator is not None:
                coordinator.abandon()
        except Exception as error:  # noqa: BLE001
            if coordinator is not None:
                coordinator.abandon()
            return [f"wal durable run raised {error!r} (plan={plan.events})"]

        try:
            recovered = DurableCoordinator.open(
                path, program, Database(dict(base.relations)),
                max_iterations=max_iterations,
            )
        except Exception as error:  # noqa: BLE001
            return [f"wal recovery raised {error!r} (crashed={crashed}, "
                    f"plan={plan.events})"]
        try:
            report = recovered.recovery
            generation = report.recovered_generation
            if not crashed and generation != len(batches):
                mismatches.append(
                    f"wal clean run recovered generation {generation} != "
                    f"{len(batches)}")
            replay_twin = MaterializedProgram(
                program, Database(dict(base.relations)),
                max_iterations=max_iterations)
            for inserts, deletes in batches[:generation]:
                replay_twin.apply(inserts=inserts, deletes=deletes)
            if fingerprint(recovered.state) != fingerprint(replay_twin):
                mismatches.append(
                    f"wal recovered state at generation {generation} "
                    f"diverges from the uncrashed twin "
                    f"(crashed={crashed}, plan={plan.events}, "
                    f"report={report.as_dict()})")
            if health_sink is not None:
                health_sink.append({
                    "seed": seed, "engine": "durable-wal",
                    "plan": [vars(event) for event in plan.events],
                    "fired": [list(hit) for hit in plan.fired],
                    "crashed": crashed,
                    "checkpoint_every": checkpoint_every, "sync": sync,
                    **{f"recovery_{key}": value
                       for key, value in report.as_dict().items()
                       if isinstance(value, int)},
                    **recovered.health.as_dict(),
                })
        finally:
            recovered.close()
    return mismatches


def run_seed(seed: int, max_iterations: int,
             query_sweep: bool = False,
             ivm_sweep: bool = False,
             wal_sweep: bool = False,
             analysis_sweep: bool = False,
             health_sink: list | None = None) -> tuple[bool, str]:
    """Run one fuzz case; returns (ok, description)."""
    rng = random.Random(seed)
    rules = generate_rules(rng)
    database, initial = generate_database(rules, rng, domain=rng.randint(3, 7))
    description = "; ".join(str(rule) for rule in rules) + (
        f"  [EDB rows: {database.total_rows()}, seed rows: {len(initial)}]"
    )

    def fresh() -> Database:
        return Database(dict(database.relations))

    interpreted_stats = EvaluationStatistics()
    interpreted = seminaive_closure_interpreted(
        rules, initial, fresh(), interpreted_stats
    )
    outcomes = {"interpreted": signature(interpreted, interpreted_stats)}
    engines: list[tuple[str, EvalConfig | None]] = [
        ("compiled", None),
        ("batch", EvalConfig(executor="batch")),
        ("interned", EvalConfig(executor="batch", intern=True)),
    ]
    for label, config in engines:
        stats = EvaluationStatistics()
        relation = seminaive_closure(
            rules, initial, fresh(), stats,
            max_iterations=max_iterations, config=config,
        )
        outcomes[label] = signature(relation, stats)

    if analysis_sweep:
        # Its own stream, so enabling this leg shifts no other leg.
        analysis_mismatches = check_analysis(
            rules, random.Random(f"analysis:{seed}"))
        if analysis_mismatches:
            return False, f"{description}\n    " + "; ".join(analysis_mismatches)

    if query_sweep:
        query_mismatches = check_queries(
            rules, database, initial, interpreted, rng,
        )
        # Its own stream: the IVM and WAL legs keep their sequences.
        query_mismatches += check_disconnected(random.Random(-seed - 1))
        if query_mismatches:
            return False, f"{description}\n    " + "; ".join(query_mismatches)

    if ivm_sweep:
        ivm_mismatches = check_ivm(rules, database, initial, rng,
                                   max_iterations)
        if ivm_mismatches:
            return False, f"{description}\n    " + "; ".join(ivm_mismatches)

    if wal_sweep:
        wal_mismatches = check_wal(rules, database, initial, rng,
                                   max_iterations, seed,
                                   health_sink=health_sink)
        if wal_mismatches:
            return False, f"{description}\n    " + "; ".join(wal_mismatches)

    reference = outcomes["interpreted"]
    mismatched = [label for label, outcome in outcomes.items()
                  if outcome != reference]
    if mismatched:
        detail = "; ".join(
            f"{label}: result={len(outcomes[label][0])} "
            f"derivations={outcomes[label][1]} duplicates={outcomes[label][2]} "
            f"iterations={outcomes[label][3]}"
            for label in outcomes
        )
        return False, f"{description}\n    {detail}"
    return True, description


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=25,
                        help="number of random programs to check (default 25)")
    parser.add_argument("--base-seed", type=int, default=0,
                        help="first seed of the range (default 0)")
    parser.add_argument("--query-seeds", type=int, default=0,
                        help="additionally check, on the first N seeds of "
                             "the range, that magic-sets demand-rewritten "
                             "answers for random adornments match filtering "
                             "the reference closure, on every serial "
                             "executor (default 0: no query parity)")
    parser.add_argument("--ivm-seeds", type=int, default=0,
                        help="additionally step, on the first N seeds of the "
                             "range, one maintained materialisation per "
                             "serial executor through random insert/delete "
                             "batches, asserting the maintained closure, "
                             "derivation/duplicate counts and query answers "
                             "bit-identical to a from-scratch recompute "
                             "after every batch (default 0: no IVM parity)")
    parser.add_argument("--wal-seeds", type=int, default=0,
                        help="additionally run, on the first N seeds of the "
                             "range, a durable engine through random commit "
                             "batches under a seed-derived crash plan (WAL "
                             "tears, checksum corruption, checkpoint-protocol "
                             "kills), re-open the directory, and assert the "
                             "recovered state bit-identical to an uncrashed "
                             "twin of the durable prefix (default 0: no "
                             "crash-recovery parity)")
    parser.add_argument("--analysis-seeds", type=int, default=0,
                        help="additionally check, on the first N seeds of "
                             "the range, that redundancy findings, "
                             "boundedness witnesses and (for pairs) "
                             "commutativity and separability are unchanged "
                             "by a random bijective renaming of variables "
                             "and predicates, and by clearing the witness "
                             "memo (default 0: no analysis invariance)")
    parser.add_argument("--max-iterations", type=int, default=10_000)
    parser.add_argument("--verbose", action="store_true",
                        help="print every generated program")
    parser.add_argument("--failures-file", type=pathlib.Path, default=None,
                        help="append every failing case (seed, program, "
                             "signatures) to this file; CI uploads it as a "
                             "workflow artifact for offline reproduction")
    parser.add_argument("--health-file", type=pathlib.Path, default=None,
                        help="write the recovery reports of the --wal-seeds "
                             "runs (plans, fired crashes, recovery counters) "
                             "to this JSON file")
    args = parser.parse_args(argv)

    failures = []
    health_runs: list[dict] = []
    for seed in range(args.base_seed, args.base_seed + args.seeds):
        queries = seed - args.base_seed < args.query_seeds
        ivm = seed - args.base_seed < args.ivm_seeds
        wal = seed - args.base_seed < args.wal_seeds
        analysis = seed - args.base_seed < args.analysis_seeds
        ok, description = run_seed(seed, args.max_iterations,
                                   query_sweep=queries,
                                   ivm_sweep=ivm,
                                   wal_sweep=wal,
                                   analysis_sweep=analysis,
                                   health_sink=health_runs)
        if args.verbose or not ok:
            status = "ok  " if ok else "FAIL"
            matrix = " [query parity]" if queries else ""
            matrix += " [ivm parity]" if ivm else ""
            matrix += " [wal crash-recovery parity]" if wal else ""
            matrix += " [analysis renaming invariance]" if analysis else ""
            print(f"seed={seed:5d} {status} {description}{matrix}")
        if not ok:
            failures.append((seed, description))
    if args.health_file is not None and health_runs:
        totals: dict[str, int] = {}
        for entry in health_runs:
            for key, value in entry.items():
                if isinstance(value, int) and key != "seed":
                    totals[key] = totals.get(key, 0) + value
        args.health_file.write_text(json.dumps(
            {"runs": health_runs, "totals": totals}, indent=2) + "\n")
        print(f"wrote {len(health_runs)} recovery reports to "
              f"{args.health_file} "
              f"(recovery actions: {totals.get('recovery_actions', 0)})")
    if failures:
        if args.failures_file is not None:
            with args.failures_file.open("a") as handle:
                handle.write(
                    f"# fuzz_differential failures "
                    f"(seeds {args.base_seed}.."
                    f"{args.base_seed + args.seeds - 1}); reproduce each "
                    f"with: python benchmarks/fuzz_differential.py "
                    f"--seeds 1 --base-seed <seed> --verbose\n"
                )
                for seed, description in failures:
                    handle.write(f"seed={seed}\n{description}\n\n")
            print(f"wrote {len(failures)} failing cases to "
                  f"{args.failures_file}")
        print(
            f"FAIL: {len(failures)}/{args.seeds} seeds diverged between the "
            f"interpreted, compiled, batch and interned executors",
            file=sys.stderr,
        )
        return 1
    ivm_note = (
        f"; maintained-vs-recompute parity on the first "
        f"{min(args.ivm_seeds, args.seeds)}"
        if args.ivm_seeds else ""
    )
    wal_note = (
        f"; crash-recovery parity on the first "
        f"{min(args.wal_seeds, args.seeds)}"
        if args.wal_seeds else ""
    )
    analysis_note = (
        f"; analysis renaming invariance on the first "
        f"{min(args.analysis_seeds, args.seeds)}"
        if args.analysis_seeds else ""
    )
    print(
        f"ok: {args.seeds} random programs agree across interpreted, "
        f"compiled, batch and interned executors "
        f"(seeds {args.base_seed}..{args.base_seed + args.seeds - 1}"
        f"{ivm_note}{wal_note}{analysis_note})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
