"""Do repeated runs of one commit agree within the benchmark's own bounds?

::

    python benchmarks/e2e/check_repeat.py A.json B.json [C.json ...]
    python benchmarks/e2e/check_repeat.py --runs 2          # produce, then compare
    python benchmarks/e2e/check_repeat.py A.json --other-seed S12.json

The inputs are result files written by ``run.py`` (suite mode, with
``--trace`` if the count metrics are to be compared).  For runs of the
same seed:

* every oracle must have held (``failed == 0``);
* every count metric (unit ``count`` or ``B``) must be *exactly* equal —
  the inputs and the repetition counts are fixed, so a count that moves
  between runs of one commit is a bug in the program or the harness;
* every end-to-end metric's run-to-run range, as a share of its median,
  is compared with the metric's regression bound.  Inside the bound it
  is ``ok``; outside, the metric is printed as ``unresolved`` — the
  benchmark cannot tell a regression of that size from its own noise on
  this machine — never as passed.

``--other-seed`` compares against a run on another seed.  A seed only
relabels the values of a fixed structure (see ``e2e_workloads``), so
the oracles must hold there too and no ``count`` may differ: one that
does means the engine's work depends on what the values are.  (Byte
sizes may: a pickled integer's length depends on its magnitude.)

Exit status: 0 all ok, 1 an oracle failed or a count moved, 2 only
unresolved timings remain.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from e2e_metrics import END_TO_END, PER_LAYER  # noqa: E402

COUNT_METRICS = tuple(metric.name for metric in PER_LAYER
                      if metric.unit in ("count", "B"))


def load(path: str) -> dict:
    return json.loads(pathlib.Path(path).read_text())


def value(report: dict, workload: str, metric: str) -> float | None:
    found = report["workloads"][workload]["metrics"].get(metric)
    return None if found is None else found["value"]


def compare_repeats(reports: list[dict]) -> tuple[int, int]:
    """Print the comparison; return (hard failures, unresolved)."""
    failures = unresolved = 0
    for workload, entry in reports[0]["workloads"].items():
        print(f"== {workload}")
        for report in reports:
            failed = report["workloads"][workload]["failed"]
            if failed:
                failures += 1
                print(f"  FAIL {failed} operations failed their oracle "
                      f"(seed {report['seed']})")
        for name in COUNT_METRICS:
            values = [value(report, workload, name) for report in reports]
            if None not in values and len(set(values)) > 1:
                failures += 1
                print(f"  FAIL {name}: count moved between runs: {values}")
        for metric in END_TO_END:
            values = [value(report, workload, metric.name)
                      for report in reports]
            spread = (max(values) - min(values)) / statistics.median(values)
            verdict = "ok" if spread <= metric.bound else "unresolved"
            unresolved += verdict == "unresolved"
            print(f"  {verdict:10s} {metric.name:22s} range {spread:7.2%} "
                  f"of median (bound {metric.bound:.0%})  "
                  + " ".join(f"{v:.6g}" for v in values))
    return failures, unresolved


def compare_seeds(base: dict, other: dict) -> int:
    """Counts across two seeds: isomorphic inputs, so none may move."""
    failures = 0
    for workload in base["workloads"]:
        failed = other["workloads"][workload]["failed"]
        if failed:
            failures += 1
            print(f"== {workload}: FAIL {failed} operations failed their "
                  f"oracle on seed {other['seed']}")
        moved = [metric.name for metric in PER_LAYER
                 if metric.unit == "count"
                 and value(base, workload, metric.name)
                 != value(other, workload, metric.name)]
        failures += len(moved)
        print(f"== {workload}: seed {base['seed']} vs {other['seed']}: "
              + (f"FAIL counts moved under relabelling: {moved}" if moved
                 else "every count equal"))
    return failures


def produce(runs: int, seed: int) -> list[str]:
    paths = []
    for index in range(runs):
        path = HERE / "out" / f"repeat-{index}-seed{seed}.json"
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--seed", str(seed),
             "--trace", "--output", str(path)], check=True)
        paths.append(str(path))
    return paths


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="*",
                        help="result files of the same seed")
    parser.add_argument("--runs", type=int,
                        help="run the traced suite this many times first")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--other-seed", metavar="RESULT",
                        help="a result file recorded on another seed")
    args = parser.parse_args(argv)
    paths = list(args.results)
    if args.runs:
        paths += produce(args.runs, args.seed)
    reports = [load(path) for path in paths]
    failures = unresolved = 0
    if len(reports) >= 2:
        if len({report["seed"] for report in reports}) > 1:
            parser.error("repeat comparison needs runs of one seed; pass the "
                         "other seed's file with --other-seed")
        failures, unresolved = compare_repeats(reports)
    elif not args.other_seed:
        parser.error("need at least two result files, --runs, or --other-seed")
    if args.other_seed:
        failures += compare_seeds(reports[0], load(args.other_seed))
    print(f"{failures} failures, {unresolved} unresolved")
    return 1 if failures else 2 if unresolved else 0


if __name__ == "__main__":
    raise SystemExit(main())
