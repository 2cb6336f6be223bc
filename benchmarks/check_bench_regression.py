"""Bench-regression gate: compare a fresh BENCH report against a baseline.

Both files are reports produced by one of the ``bench_*.py`` scripts
beside this file (a JSON object with a ``results`` list).  Result
entries are matched across files by their size key (``size`` or
``layers``), and every recorded timing series — any numeric field ending
in ``_seconds`` — is compared.  Series or entries present only in the
baseline fail (a series must not silently disappear); series that are
new in the current report are reported and accepted.

Calibration
-----------

Baselines are committed from one machine; CI runs on another, under
varying load.  Comparing raw wall-clock would gate on hardware, not on
the engine.  The checker therefore computes a **calibration factor** —
the median of ``current / baseline`` across every comparable series —
and flags a series only when it is more than ``threshold`` slower than
the baseline *after* dividing out that factor.  A uniform slowdown
(slower runner, noisy neighbour) moves the median and cancels out; a
*differential* slowdown — one executor's series regressing while the
others hold — survives the division and fails the gate.  (The flip side:
a code change that slows every series by the same factor is
indistinguishable from slower hardware and passes; the machine-
independent speedup floors inside the benchmarks themselves cover that
case.)  ``--no-calibrate`` compares raw seconds for same-machine use.

Timings where either side is below ``--min-seconds`` are ignored: at
sub-10ms scale with ``--quick``'s single repeat the comparison would
gate on scheduler noise.

Usage::

    python benchmarks/check_bench_regression.py \
        --baseline benchmarks/baselines/BENCH_engine.quick.json \
        --current BENCH_engine.json --threshold 1.25

    # refresh a baseline after an accepted perf change
    python benchmarks/check_bench_regression.py --baseline ... --current ... --update
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys


def _entry_key(entry: dict) -> object:
    for field in ("size", "layers"):
        if field in entry:
            return (field, entry[field])
    raise SystemExit(f"result entry has no size/layers key: {entry}")


def _series(entry: dict) -> dict[str, float]:
    return {
        name: value for name, value in entry.items()
        if name.endswith("_seconds") and isinstance(value, (int, float))
    }


def load_report(path: pathlib.Path) -> dict:
    report = json.loads(path.read_text())
    results = report.get("results")
    if not isinstance(results, list) or not results:
        raise SystemExit(f"{path}: no results list")
    return report


def load_results(path: pathlib.Path) -> dict[object, dict[str, float]]:
    report = load_report(path)
    return {_entry_key(entry): _series(entry) for entry in report["results"]}


def comparable_pairs(baseline: dict, current: dict, min_seconds: float):
    """(key, series name, baseline value, current value) above the floor."""
    for key, base_series in sorted(baseline.items(), key=str):
        current_series = current.get(key, {})
        for name, base_value in sorted(base_series.items()):
            if name not in current_series:
                continue
            value = current_series[name]
            if base_value < min_seconds or value < min_seconds:
                continue
            yield key, name, base_value, value


def calibration_factor(baseline: dict, current: dict,
                       min_seconds: float) -> float:
    ratios = [value / base_value for _, _, base_value, value
              in comparable_pairs(baseline, current, min_seconds)]
    if not ratios:
        return 1.0
    return statistics.median(ratios)


def compare(baseline: dict, current: dict, threshold: float,
            min_seconds: float, factor: float) -> list[str]:
    problems = []
    for key, base_series in sorted(baseline.items(), key=str):
        if key not in current:
            problems.append(f"{key}: entry missing from current report")
            continue
        current_series = current[key]
        for name, base_value in sorted(base_series.items()):
            if name not in current_series:
                problems.append(f"{key} {name}: series missing from current report")
                continue
            value = current_series[name]
            if base_value < min_seconds or value < min_seconds:
                status = "skip (below noise floor)"
            elif value / factor > base_value * threshold:
                status = "REGRESSION"
                problems.append(
                    f"{key} {name}: {value:.6f}s vs baseline "
                    f"{base_value:.6f}s ({value / base_value:.2f}x raw, "
                    f"{value / factor / base_value:.2f}x calibrated, "
                    f"threshold {threshold:.2f}x)"
                )
            else:
                status = "ok"
            print(
                f"  {key} {name}: {value:.6f}s vs {base_value:.6f}s "
                f"[{status}]"
            )
        for name in sorted(set(current_series) - set(base_series)):
            print(f"  {key} {name}: new series "
                  f"({current_series[name]:.6f}s), accepted")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=pathlib.Path, required=True)
    parser.add_argument("--current", type=pathlib.Path, required=True)
    parser.add_argument("--threshold", type=float, default=1.25,
                        help="fail when current > baseline * threshold after "
                             "calibration (default 1.25, i.e. a >25%% "
                             "differential slowdown)")
    parser.add_argument("--min-seconds", type=float, default=0.01,
                        help="ignore series where either side is below this "
                             "(timer noise floor, default 0.01s)")
    parser.add_argument("--no-calibrate", action="store_true",
                        help="compare raw seconds without dividing out the "
                             "median machine-speed factor")
    parser.add_argument("--update", action="store_true",
                        help="overwrite the baseline with the current report "
                             "instead of comparing")
    args = parser.parse_args(argv)

    if args.update:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(args.current.read_text())
        print(f"baseline {args.baseline} updated from {args.current}")
        return 0

    baseline = load_results(args.baseline)
    current = load_results(args.current)
    factor = 1.0
    if not args.no_calibrate:
        factor = calibration_factor(baseline, current, args.min_seconds)
    print(
        f"comparing {args.current} against baseline {args.baseline} "
        f"(machine calibration factor {factor:.3f})"
    )
    problems = compare(baseline, current, args.threshold, args.min_seconds,
                       factor)
    if problems:
        print(
            f"FAIL: {len(problems)} recorded series regressed beyond "
            f"{args.threshold:.2f}x:",
            file=sys.stderr,
        )
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print("ok: no recorded series regressed beyond the threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
