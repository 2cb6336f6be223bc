"""The repository's one benchmark: solve, ask, commit and recovery.

::

    python benchmarks/e2e/run.py                      # every workload
    python benchmarks/e2e/run.py --trace              # plus the layer pass
    python benchmarks/e2e/run.py --workload tc_closure --seed 11 \\
        --seconds 12 --trace 0                        # one run (the driver)

With ``--workload`` this process *is* the run: it generates the inputs
from ``--seed``, measures rounds for ``--seconds``, checks every output
against its oracle and prints one JSON object as its last line —
``{"correct", "attempted", "failed", "metrics"}`` — holding every
end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``, which also writes ``out/trace-<workload>.jsonl``).

Without ``--workload`` it launches one fresh interpreter per (workload,
pass), so plan caches, the planner catalog, ``Domain``s and RSS never
leak from one run into the next, prints every metric by name with its
unit, and writes ``out/result-seed<N>.json``.

Load is closed loop: one client, one process.  ``--seconds`` bounds how
many whole rounds are measured, never what a round contains, so the
counts a run reports do not depend on it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent
OUT = HERE / "out"
for _path in (HERE, HERE.parent.parent / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

try:
    import repro  # noqa: F401
except ImportError:
    # Nothing to measure without the program: fail before any output.
    sys.stderr.write("run.py: src/repro is not importable from "
                     f"{HERE.parent.parent}\n")
    raise SystemExit(2)

from repro import solve  # noqa: E402
from repro.engine.plan import clear_plan_cache  # noqa: E402
from repro.planner import planner_catalog  # noqa: E402

from e2e_layers import Probes  # noqa: E402
from e2e_metrics import END_TO_END_NAMES, PER_LAYER_NAMES, UNITS  # noqa: E402
from e2e_session import Session, check_reference, set_up  # noqa: E402
from e2e_trace import Tracer  # noqa: E402
from e2e_workloads import WORKLOADS  # noqa: E402

#: Set-up is repeated and its median reported, so one slow generation
#: does not read as a set-up regression.
SETUP_REPETITIONS = 5
DEFAULT_SECONDS = 12
#: What one round of any workload is sized to take on the recording
#: machine (2 cores); ``--seconds`` buys ``seconds / ROUND_SECONDS`` rounds.
ROUND_SECONDS = 4
DEFAULT_SEED = 11


def measure(workload: str, seed: int, seconds: float, size: str,
            workdir: str) -> tuple[Session, dict[str, float]]:
    setups = []
    for _ in range(SETUP_REPETITIONS):
        start = perf_counter()
        scenarios = set_up(workload, seed, size)
        setups.append(perf_counter() - start)
    # The oracle's closures stay alive for the whole run; frozen, the
    # collector passes that fire inside timed calls scan only what the
    # program under test allocates.
    gc.collect()
    gc.freeze()
    session = Session(scenarios, workdir)
    try:
        session.warm_up()
        # A fixed number of rounds for a given --seconds, so memory and
        # every count repeat exactly; the clock only cuts a run short on
        # a machine much slower than the one the rounds were sized on.
        planned = max(1, round(seconds / ROUND_SECONDS))
        began = perf_counter()
        for rounds in range(1, planned + 1):
            session.round()
            elapsed = perf_counter() - began
            if elapsed * (rounds + 1) / rounds > 1.5 * seconds:
                break
        sys.stderr.write(f"{workload}: {rounds} of {planned} rounds in "
                         f"{elapsed:.2f} s\n")
        if size == "full":
            check_reference(workload, seed, session)
    finally:
        session.finish()
        gc.unfreeze()
    values = session.end_to_end()
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return session, values


def trace(workload: str, seed: int, size: str, workdir: str
          ) -> tuple[Session, dict[str, float]]:
    scenarios = set_up(workload, seed, size)
    # First of all, while nothing is cached: what a first costed solve
    # pays for its plan search.
    planner_catalog().clear()
    clear_plan_cache()
    start = perf_counter()
    for scenario in scenarios:
        solve(scenario.program, scenario.database(), scenario.predicate,
              "costed")
    cold_pass = perf_counter() - start
    session = Session(scenarios, workdir)
    tracer = Tracer(f"{workload}-seed{seed}")
    try:
        session.warm_up()
        warm = session.timed_seconds
        session.round()
        untraced = session.timed_seconds - warm
        tracer.install()
        session.tracer = tracer
        try:
            session.round()
            traced = session.timed_seconds - warm - untraced
            probes = Probes(session, tracer)
            for scenario in scenarios:
                probes.run(scenario)
        finally:
            tracer.uninstall()
            session.tracer = None
        values = probes.metrics(cold_pass, untraced, traced)
    finally:
        session.finish()
    tracer.write(str(OUT / f"trace-{workload}.jsonl"))
    for layer, seconds in sorted(tracer.layer_table().items()):
        sys.stderr.write(f"self time under e2e calls  {layer:12s} "
                         f"{seconds:10.6f} s\n")
    return session, values


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 size: str) -> dict:
    """One run; the dictionary the driver reads off the last line."""
    workdir = OUT / f"tmp-{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    if traced:
        session, values = trace(workload, seed, size, str(workdir))
        names = PER_LAYER_NAMES
    else:
        session, values = measure(workload, seed, seconds, size, str(workdir))
        names = END_TO_END_NAMES
    for error in session.errors:
        sys.stderr.write(f"FAILED {error}\n")
    return {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": values[name], "unit": UNITS[name]}
                    for name in names},
    }


def run_suite(seed: int, seconds: float, traced: bool, size: str,
              output: pathlib.Path | None = None) -> dict:
    """Every workload, each pass in a fresh interpreter; prints a table."""
    results: dict[str, dict] = {}
    for workload in WORKLOADS:
        for flag in (0, 1) if traced else (0,):
            completed = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(flag), "--size", size],
                capture_output=True, text=True, check=False)
            sys.stderr.write(completed.stderr)
            if completed.returncode != 0:
                raise SystemExit(f"{workload} --trace {flag} exited with "
                                 f"{completed.returncode}")
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            entry = results.setdefault(workload, {
                "attempted": 0, "failed": 0, "metrics": {}})
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry["metrics"].update(result["metrics"])
        entry["ops_failed_frac"] = entry["failed"] / entry["attempted"]
        print(f"== {workload}: {entry['attempted']} operations, "
              f"ops_failed_frac {entry['ops_failed_frac']}")
        for name, metric in entry["metrics"].items():
            print(f"{name:36s} {metric['value']:>16.6g} {metric['unit']}")
    report = {
        "seed": seed, "seconds": seconds, "size": size,
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "load_average": os.getloadavg(), "workloads": results,
    }
    path = output or OUT / f"result-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {path}")
    return report


def stop_children() -> None:
    """Stop every process this interpreter started and wait for each.

    The ``processes`` backend joins its own workers, but its semaphores
    and shared-memory segments start multiprocessing's resource tracker,
    which only exits once the pipe to its parent closes — that is, a
    moment *after* this interpreter has gone.  Stopped here, nothing this
    run started is alive when it returns.
    """
    from multiprocessing import active_children, resource_tracker
    # Pool workers first, had an exception cut a ``processes`` leg short:
    # forked, they hold the tracker's pipe open too.
    for child in active_children():
        child.terminate()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()  # closes the pipe, then waits for the tracker


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="'tiny' is the smoke-test size")
    parser.add_argument("--output", type=pathlib.Path,
                        help="suite mode: where to write the result file "
                             "(default out/result-seed<N>.json)")
    args = parser.parse_args(argv)
    if args.workload is None:
        report = run_suite(args.seed, args.seconds, bool(args.trace),
                           args.size, args.output)
        return 1 if any(entry["failed"]
                        for entry in report["workloads"].values()) else 0
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
