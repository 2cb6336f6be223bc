"""Executor-trajectory benchmark: interpreted vs compiled vs batch vs interned.

Runs the transitive-closure micro-workload of ``bench_engine_micro`` (a
layered DAG, identity-seeded) at several sizes through four engines, so
the whole executor trajectory is recorded in one artifact:

* **interpreted** — the seed engine's semi-naive loop, verbatim: it
  re-plans the join order, rebuilds every index, and copies a dict of
  bindings per probed row on every iteration
  (:func:`repro.engine.reference.seminaive_closure_interpreted`);
* **compiled** — :func:`repro.engine.seminaive.seminaive_closure`, which
  compiles each rule once (:mod:`repro.engine.plan`), reuses the
  database's persistent EDB index cache across iterations, and
  accumulates the fixpoint in a mutable :class:`RowSetBuilder`;
* **vector** — the same driver under ``EvalConfig(executor="batch")``:
  the column-oriented batch executor of :mod:`repro.engine.vectorized`
  (batched hash-probe joins, fused collapsing head projection);
* **interned** — ``EvalConfig(executor="batch", intern=True)``: the int
  specialisation over dictionary-encoded ids — ``array('q')``-backed
  interned columns, int-keyed pre-projected probe buckets, packed-int
  head emission, and the whole fixpoint kept in packed-id space with
  one decode at the end.

All engines must produce the identical result relation and identical
derivation/duplicate counts (the Theorem 3.1 accounting); any mismatch
fails the run, as does a ``vector`` series slower than the
``vector_vs_compiled`` floor or an ``interned`` series slower than the
``interned_vs_vector`` floor at the largest size.  Results are written
to ``BENCH_engine.json``.

Usage::

    python benchmarks/bench_compiled.py             # full sizes, 3 repeats
    python benchmarks/bench_compiled.py --quick     # CI smoke run
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys
import time

_SRC = pathlib.Path(__file__).parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.datalog.parser import parse_rule  # noqa: E402
from repro.engine.parallel import EvalConfig  # noqa: E402
from repro.engine.plan import clear_plan_cache  # noqa: E402
from repro.engine.reference import seminaive_closure_interpreted  # noqa: E402
from repro.engine.seminaive import seminaive_closure  # noqa: E402
from repro.engine.statistics import EvaluationStatistics  # noqa: E402
from repro.storage.database import Database  # noqa: E402
from repro.storage.relation import Relation  # noqa: E402
from repro.workloads.graphs import layered_dag_edges  # noqa: E402

TC_RULE = parse_rule("path(X, Y) :- edge(X, Z), path(Z, Y).")


def _workload(size: int) -> tuple[Database, Relation]:
    """The ``bench_engine_micro`` DAG at *size* nodes, identity-seeded."""
    rng = random.Random(11)
    database = Database.of(
        layered_dag_edges(size // 8, 8, fanout=2, name="edge", rng=rng)
    )
    initial = Relation.of(
        "path", 2, [(node, node) for node in sorted(database.active_domain())]
    )
    return database, initial


def _time_best_of(repeats, run):
    best_seconds = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        elapsed = time.perf_counter() - start
        if best_seconds is None or elapsed < best_seconds:
            best_seconds = elapsed
    return best_seconds, result


def run_benchmark(sizes, repeats):
    results = []
    for size in sizes:
        def run_interpreted():
            database, initial = _workload(size)
            stats = EvaluationStatistics()
            relation = seminaive_closure_interpreted(
                (TC_RULE,), initial, database, stats
            )
            return relation, stats

        def run_compiled():
            # Fresh database (fresh index cache) and cold plan cache per
            # run: the measured time includes planning and index builds.
            clear_plan_cache()
            database, initial = _workload(size)
            stats = EvaluationStatistics()
            relation = seminaive_closure((TC_RULE,), initial, database, stats)
            return relation, stats

        def run_vector():
            clear_plan_cache()
            database, initial = _workload(size)
            stats = EvaluationStatistics()
            relation = seminaive_closure(
                (TC_RULE,), initial, database, stats,
                config=EvalConfig(executor="batch"),
            )
            return relation, stats

        def run_interned():
            clear_plan_cache()
            database, initial = _workload(size)
            stats = EvaluationStatistics()
            relation = seminaive_closure(
                (TC_RULE,), initial, database, stats,
                config=EvalConfig(executor="batch", intern=True),
            )
            return relation, stats

        interpreted_seconds, (interpreted_rel, interpreted_stats) = _time_best_of(
            repeats, run_interpreted
        )
        compiled_seconds, (compiled_rel, compiled_stats) = _time_best_of(
            repeats, run_compiled
        )
        vector_seconds, (vector_rel, vector_stats) = _time_best_of(
            repeats, run_vector
        )
        interned_seconds, (interned_rel, interned_stats) = _time_best_of(
            repeats, run_interned
        )

        def matches(relation, stats):
            return (
                relation.rows == interpreted_rel.rows
                and stats.derivations == interpreted_stats.derivations
                and stats.duplicates == interpreted_stats.duplicates
                and stats.iterations == interpreted_stats.iterations
            )

        match = (
            matches(compiled_rel, compiled_stats)
            and matches(vector_rel, vector_stats)
            and matches(interned_rel, interned_stats)
        )
        entry = {
            "size": size,
            "interpreted_seconds": round(interpreted_seconds, 6),
            "compiled_seconds": round(compiled_seconds, 6),
            "vector_seconds": round(vector_seconds, 6),
            "interned_seconds": round(interned_seconds, 6),
            "speedup": round(interpreted_seconds / compiled_seconds, 2),
            "speedup_vector": round(interpreted_seconds / vector_seconds, 2),
            "speedup_interned": round(interpreted_seconds / interned_seconds, 2),
            "vector_vs_compiled": round(compiled_seconds / vector_seconds, 2),
            "interned_vs_vector": round(vector_seconds / interned_seconds, 2),
            "result_size": len(compiled_rel),
            "derivations": compiled_stats.derivations,
            "duplicates": compiled_stats.duplicates,
            "iterations": compiled_stats.iterations,
            "results_and_counts_match": match,
        }
        results.append(entry)
        print(
            f"size={size:4d}  interpreted={interpreted_seconds:8.3f}s  "
            f"compiled={compiled_seconds:8.3f}s  "
            f"vector={vector_seconds:8.3f}s  "
            f"interned={interned_seconds:8.3f}s  "
            f"speedup={entry['speedup']:5.2f}x/{entry['speedup_vector']:5.2f}x"
            f"/{entry['speedup_interned']:5.2f}x  "
            f"vector_vs_compiled={entry['vector_vs_compiled']:4.2f}x  "
            f"interned_vs_vector={entry['interned_vs_vector']:4.2f}x  "
            f"result={entry['result_size']}  match={match}"
        )
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke run: small sizes, one repeat")
    parser.add_argument("--output", type=pathlib.Path,
                        default=pathlib.Path(__file__).parent.parent / "BENCH_engine.json")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless the largest size reaches this "
                             "compiled-vs-interpreted speedup "
                             "(default: 3.0 full, 1.5 quick)")
    parser.add_argument("--min-vector-speedup", type=float, default=1.5,
                        help="fail unless the vector series beats compiled by "
                             "this factor at the largest size (both modes)")
    parser.add_argument("--min-interned-speedup", type=float, default=None,
                        help="fail unless the interned series beats vector by "
                             "this factor at the largest size "
                             "(default: 1.3 full, 1.1 quick — quick runs a "
                             "single repeat, so its floor tolerates timer "
                             "noise)")
    args = parser.parse_args(argv)

    # Quick mode keeps size 512 so the vector-vs-compiled floor is
    # checked on the workload the acceptance criteria name.
    sizes = [64, 128, 512] if args.quick else [64, 128, 256, 512]
    repeats = 1 if args.quick else 3
    min_speedup = args.min_speedup if args.min_speedup is not None else (
        1.5 if args.quick else 3.0
    )
    min_interned = (args.min_interned_speedup
                    if args.min_interned_speedup is not None
                    else (1.1 if args.quick else 1.3))

    results = run_benchmark(sizes, repeats)
    report = {
        "benchmark": "interpreted vs compiled vs batch (vector) vs "
                     "interned semi-naive",
        "workload": "transitive closure over a layered DAG "
                    "(bench_engine_micro shape), identity-seeded",
        "rule": str(TC_RULE),
        "mode": "quick" if args.quick else "full",
        "repeats": repeats,
        "results": results,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    if not all(entry["results_and_counts_match"] for entry in results):
        print("FAIL: interpreted/compiled/vector engines disagree",
              file=sys.stderr)
        return 1
    headline = results[-1]["speedup"]
    if headline < min_speedup:
        print(
            f"FAIL: speedup {headline}x at size {results[-1]['size']} is below "
            f"the {min_speedup}x floor",
            file=sys.stderr,
        )
        return 1
    vector_headline = results[-1]["vector_vs_compiled"]
    if vector_headline < args.min_vector_speedup:
        print(
            f"FAIL: vector executor is only {vector_headline}x compiled at "
            f"size {results[-1]['size']}, below the "
            f"{args.min_vector_speedup}x floor",
            file=sys.stderr,
        )
        return 1
    interned_headline = results[-1]["interned_vs_vector"]
    if interned_headline < min_interned:
        print(
            f"FAIL: interned executor is only {interned_headline}x vector at "
            f"size {results[-1]['size']}, below the "
            f"{min_interned}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
