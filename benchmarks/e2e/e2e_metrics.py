"""The benchmark's metric registry: one table, read by everything else.

``END_TO_END`` are the quantities a user of the system sees — the wall
time of ``solve()``, ``QueryEngine.ask``, a ``LiveEngine`` commit and
``LiveEngine.open`` recovery, plus set-up time and peak memory.  Every
workload reports every one of them (the driver contract), so a later
change names its claim as one of these names on one workload.  Every
round runs the same schedule, so each scheduled operation has one
sample per round; a metric is the *sum or mean over the schedule of
each operation's median over the rounds*.  The median is taken per
operation, never across operations: the schedules mix cheap and
expensive operations on purpose, and a median over a bimodal mix jumps
between the modes.  Medians and tails across operations are layer
metrics.

``PER_LAYER`` are measured on the traced pass only, from outside the
program: by timing calls into each module's public functions and by
reading the counters those calls return.  ``layer`` is the module
under ``src/repro``; ``moves`` lists the end-to-end metrics a change to
that layer metric should move — written down *before* measuring, so a
saving that shows up elsewhere than predicted is visible as such.

``BENCHMARK.json`` at the repository root lists exactly these names
(``test_smoke.py`` holds the two together).
"""

from __future__ import annotations

from typing import NamedTuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen.
    bound: float
    what: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    layer: str
    #: End-to-end metrics this layer metric should move.
    moves: tuple[str, ...]
    what: str


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "input generation + Database construction + expected closures "
             "(median of the set-up repetitions)"),
    EndToEnd("solve_s", "s", "lower", 0.25,
             "solve(text, fresh_db), default config, summed over the "
             "workload's programs"),
    EndToEnd("solve_interned_s", "s", "lower", 0.25,
             "the same with config='interned'"),
    EndToEnd("solve_costed_s", "s", "lower", 0.25,
             "the same with config='costed', warm planner catalog"),
    EndToEnd("solve_adaptive_s", "s", "lower", 0.25,
             "the same with config='adaptive', warm planner catalog"),
    EndToEnd("strategy_query_s", "s", "lower", 0.25,
             "RecursiveQueryEngine().query: analysis, strategy choice and "
             "the chosen driver"),
    EndToEnd("ask_cold_s", "s", "lower", 0.25,
             "QueryEngine(db, text).ask(q) on a fresh engine, mean over the "
             "bb/bf/fb mix"),
    EndToEnd("ask_warm_s", "s", "lower", 0.25,
             "mean warm ask over the seeded query stream"),
    EndToEnd("commit_insert_s", "s", "lower", 0.25,
             "mean single-row insert transaction, entry to exit, durable "
             "with sync='always'"),
    EndToEnd("commit_delete_s", "s", "lower", 0.25,
             "mean single-row delete transaction (DRed), same engine"),
    EndToEnd("commits_per_s", "1/s", "higher", 0.25,
             "single-row commits over their wall time, one closed-loop client"),
    EndToEnd("batch_commit_s", "s", "lower", 0.25,
             "mean multi-row transaction (a delete batch and its re-insert)"),
    EndToEnd("live_ask_s", "s", "lower", 0.25,
             "mean LiveEngine.ask of a ground query between commits"),
    EndToEnd("recover_s", "s", "lower", 0.25,
             "LiveEngine.open after abandon(): checkpoint mmap + replay of "
             "the cycle's WAL suffix"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10,
             "ru_maxrss of the workload's process"),
)


def _layer(layer: str, moves: tuple[str, ...], *rows: tuple[str, str, str, str]
           ) -> tuple[PerLayer, ...]:
    return tuple(
        PerLayer(f"{layer}.{name}", unit, better, layer, moves, what)
        for name, unit, better, what in rows
    )


_SOLVES = ("solve_s", "solve_interned_s", "solve_costed_s", "solve_adaptive_s")
_COMMITS = ("commit_insert_s", "commit_delete_s", "batch_commit_s",
            "commits_per_s")

PER_LAYER: tuple[PerLayer, ...] = (
    *_layer(
        "datalog", ("solve_s", "ask_cold_s", "strategy_query_s"),
        ("parse_s", "s", "lower", "parse_program over every program text"),
        ("rules", "count", "lower", "rules parsed"),
    ),
    *_layer(
        "core", ("strategy_query_s",),
        ("analyze_s", "s", "lower",
         "RecursionAnalyzer.analyze + QueryPlanner.plan"),
        ("execute_s", "s", "lower", "RecursiveQueryEngine.execute of the plan"),
        ("baseline_s", "s", "lower", "RecursiveQueryEngine.baseline (DIRECT)"),
        ("duplicates_planned", "count", "lower",
         "duplicate derivations under the chosen strategy"),
        ("duplicates_baseline", "count", "lower",
         "duplicate derivations under DIRECT"),
        ("dup_ratio", "ratio", "lower",
         "planned / baseline duplicates; the paper's claim is <= 1 for the "
         "commutativity-driven strategies"),
    ),
    *_layer(
        "planner", ("solve_costed_s", "solve_adaptive_s"),
        ("plan_greedy_s", "s", "lower", "plan_program, planner='greedy'"),
        ("plan_costed_s", "s", "lower", "plan_program, planner='costed'"),
        ("plan_adaptive_s", "s", "lower", "plan_program, planner='adaptive'"),
        ("cold_pass_costed_s", "s", "lower",
         "solve(config='costed') with an empty catalog and plan cache"),
        ("rows_probed_greedy", "count", "lower", "JoinCounters.rows_probed"),
        ("rows_probed_costed", "count", "lower", "JoinCounters.rows_probed"),
        ("rows_probed_adaptive", "count", "lower", "JoinCounters.rows_probed"),
        ("replans", "count", "lower", "PlannerReport.replans under adaptive"),
    ),
    *_layer(
        "engine.plan", _SOLVES,
        ("compile_s", "s", "lower", "compile_rule on a cold plan cache"),
    ),
    *_layer(
        "storage", _SOLVES,
        ("hash_index_build_s", "s", "lower",
         "Database.index calls made by one default solve (fresh database)"),
        ("intern_s", "s", "lower", "Database.intern_all on a fresh database"),
        ("int_index_build_s", "s", "lower",
         "Database.interned_index calls made by one interned solve"),
        ("decode_s", "s", "lower",
         "PackedClosure.freeze: interned closure back to value rows"),
        ("domain_size", "count", "lower", "values in the database's Domain"),
    ),
    *_layer(
        "engine", _SOLVES,
        ("fixpoint_s", "s", "lower",
         "seminaive_closure, rows executor, parsed rules, warm plan cache "
         "and indexes"),
        ("fixpoint_interned_s", "s", "lower", "the same, interned executor"),
        ("fixpoint_batch_s", "s", "lower", "the same, batch executor"),
        ("derivations", "count", "lower", "Theorem-3.1 arcs"),
        ("duplicates", "count", "lower", "derivations of known tuples"),
        ("iterations", "count", "lower", "fixpoint iterations"),
        ("rows_probed", "count", "lower", "candidate rows examined"),
        ("result_rows", "count", "higher", "closure size"),
        ("useful_ratio", "ratio", "higher", "result rows / derivations"),
    ),
    *_layer(
        "engine.parallel", (),
        ("threads_s", "s", "lower",
         "seminaive_closure, interned, backend='threads'"),
        ("processes_s", "s", "lower",
         "seminaive_closure, interned, backend='processes'"),
        ("degradations", "count", "lower", "HealthReport.degradations"),
        ("retries", "count", "lower", "task + iteration retries"),
    ),
    *_layer(
        "query", ("ask_cold_s", "ask_warm_s", "live_ask_s"),
        ("labels_build_s", "s", "lower",
         "build_labels over each program's graph relation"),
        ("labels_lookup_p50_s", "s", "lower",
         "ReachabilityLabels.reaches on the built index"),
        ("magic_rewrite_s", "s", "lower", "magic_rewrite per adornment"),
        ("magic_solve_s", "s", "lower", "MagicProgram.solve per bf query"),
        ("ask_edb_p50_s", "s", "lower", "ask of a stored relation"),
        ("ask_magic_p50_s", "s", "lower", "ask(strategy='magic')"),
        ("ask_closure_p50_s", "s", "lower",
         "ask(strategy='closure'), closure cached"),
        ("ask_p50_s", "s", "lower", "median of the warm stream"),
        ("ask_p99_s", "s", "lower", "p99 of the warm stream"),
        ("tier_edb", "count", "higher", "stream answers served by tier"),
        ("tier_labels", "count", "higher", "stream answers served by tier"),
        ("tier_magic", "count", "lower", "stream answers served by tier"),
        ("tier_closure", "count", "lower", "stream answers served by tier"),
        ("magic_vs_closure", "ratio", "lower",
         "magic solve time / full solve of the same program; the rewrite "
         "earns its place below 1"),
    ),
    *_layer(
        "ivm", (*_COMMITS, "recover_s"),
        ("build_s", "s", "lower", "MaterializedProgram(text, db)"),
        ("stage_s", "s", "lower", "MaterializedProgram.stage, median"),
        ("apply_insert_p50_s", "s", "lower",
         "MaterializedProgram.apply, single insert, no WAL, no asyncio"),
        ("apply_delete_p50_s", "s", "lower", "the same, single delete"),
        ("apply_batch_s", "s", "lower", "the same, batch transactions"),
        ("changed_rows", "count", "lower",
         "closure rows entering or leaving, from the ChangeSets"),
    ),
    *_layer(
        "durability", (*_COMMITS, "recover_s"),
        ("wal_append_p50_s", "s", "lower", "DurableLog.append, sync='always'"),
        ("wal_append_nosync_p50_s", "s", "lower",
         "DurableLog.append, sync='none'; the difference is fsync"),
        ("wal_bytes_per_commit", "B", "lower", "log growth per record"),
        ("coordinator_apply_p50_s", "s", "lower",
         "DurableCoordinator.apply: stage + append + apply"),
        ("checkpoint_write_s", "s", "lower", "DurableCoordinator.checkpoint"),
        ("checkpoint_bytes", "B", "lower", "size of the checkpoint file"),
        ("open_clean_s", "s", "lower",
         "DurableCoordinator.open with an empty WAL suffix"),
        ("replay_per_record_s", "s", "lower",
         "(recover - open_clean) / records replayed"),
        ("records_replayed", "count", "lower", "RecoveryReport, per recovery"),
        ("records_truncated", "count", "lower", "RecoveryReport"),
    ),
    *_layer(
        "serve", (*_COMMITS, "live_ask_s"),
        ("start_s", "s", "lower",
         "cold LiveEngine(...).start(): the build recover_s is compared with"),
        ("commit_overhead_p50_s", "s", "lower",
         "median of (commit - DurableCoordinator.apply of the same change): "
         "asyncio hand-off, snapshot publish, notify"),
        ("commit_insert_p50_s", "s", "lower", "median single-row insert"),
        ("commit_delete_p50_s", "s", "lower", "median single-row delete"),
        ("commit_p95_s", "s", "lower", "p95 over the single-row commits"),
        ("notify_p50_s", "s", "lower",
         "commit exit to ResultChange received"),
        ("ask_p50_s", "s", "lower", "median LiveEngine.ask between commits"),
        ("ask_p99_s", "s", "lower", "p99 of LiveEngine.ask between commits"),
        ("shed", "count", "lower", "OverloadErrors (expected 0)"),
    ),
    PerLayer("layers.unattributed_frac", "ratio", "lower", "bookkeeping", (),
             "1 - layer self time / end-to-end time of the traced calls"),
    PerLayer("trace_overhead_frac", "ratio", "lower", "bookkeeping", (),
             "traced vs untraced time of the same calls"),
)

END_TO_END_NAMES = tuple(metric.name for metric in END_TO_END)
PER_LAYER_NAMES = tuple(metric.name for metric in PER_LAYER)
UNITS = {metric.name: metric.unit for metric in (*END_TO_END, *PER_LAYER)}
