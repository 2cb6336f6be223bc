"""Tests for the bench-regression gate (benchmarks/check_bench_regression.py).

Locks in the contract the CI gate relies on: a timing series (or whole
entry) present in the committed baseline but missing from a fresh report
fails the run — a recorded series must not silently disappear — while a
series that is new in the current report is accepted.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

_SCRIPT = (pathlib.Path(__file__).parent.parent / "benchmarks"
           / "check_bench_regression.py")
_spec = importlib.util.spec_from_file_location("check_bench_regression", _SCRIPT)
assert _spec is not None and _spec.loader is not None
check_bench_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench_regression)


def _write_report(path: pathlib.Path, results: list[dict]) -> pathlib.Path:
    path.write_text(json.dumps({"benchmark": "test", "results": results}))
    return path


def _run(tmp_path, baseline_results, current_results, extra_args=()):
    baseline = _write_report(tmp_path / "baseline.json", baseline_results)
    current = _write_report(tmp_path / "current.json", current_results)
    return check_bench_regression.main(
        ["--baseline", str(baseline), "--current", str(current), *extra_args]
    )


class TestMissingSeries:
    def test_identical_reports_pass(self, tmp_path):
        results = [{"size": 64, "alpha_seconds": 1.0, "beta_seconds": 2.0}]
        assert _run(tmp_path, results, results) == 0

    def test_missing_series_fails(self, tmp_path):
        baseline = [{"size": 64, "alpha_seconds": 1.0, "beta_seconds": 2.0}]
        current = [{"size": 64, "alpha_seconds": 1.0}]
        assert _run(tmp_path, baseline, current) == 1

    def test_missing_entry_fails(self, tmp_path):
        baseline = [
            {"size": 64, "alpha_seconds": 1.0},
            {"size": 128, "alpha_seconds": 2.0},
        ]
        current = [{"size": 64, "alpha_seconds": 1.0}]
        assert _run(tmp_path, baseline, current) == 1

    def test_new_series_accepted(self, tmp_path):
        baseline = [{"size": 64, "alpha_seconds": 1.0}]
        current = [{"size": 64, "alpha_seconds": 1.0, "interned_seconds": 0.5}]
        assert _run(tmp_path, baseline, current) == 0


class TestRegressionDetection:
    def test_differential_slowdown_fails(self, tmp_path):
        baseline = [{"size": 64, "alpha_seconds": 1.0, "beta_seconds": 1.0}]
        current = [{"size": 64, "alpha_seconds": 1.0, "beta_seconds": 2.0}]
        assert _run(tmp_path, baseline, current) == 1

    def test_uniform_slowdown_is_calibrated_out(self, tmp_path):
        baseline = [{"size": 64, "alpha_seconds": 1.0, "beta_seconds": 2.0}]
        current = [{"size": 64, "alpha_seconds": 3.0, "beta_seconds": 6.0}]
        assert _run(tmp_path, baseline, current) == 0

    def test_no_calibrate_compares_raw(self, tmp_path):
        baseline = [{"size": 64, "alpha_seconds": 1.0, "beta_seconds": 2.0}]
        current = [{"size": 64, "alpha_seconds": 3.0, "beta_seconds": 6.0}]
        assert _run(tmp_path, baseline, current, ("--no-calibrate",)) == 1

    def test_noise_floor_skips_tiny_timings(self, tmp_path):
        baseline = [{"size": 64, "alpha_seconds": 0.001}]
        current = [{"size": 64, "alpha_seconds": 0.009}]
        assert _run(tmp_path, baseline, current) == 0


class TestUpdate:
    def test_update_overwrites_baseline(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        current = _write_report(
            tmp_path / "current.json", [{"size": 1, "alpha_seconds": 1.0}]
        )
        code = check_bench_regression.main(
            ["--baseline", str(baseline), "--current", str(current), "--update"]
        )
        assert code == 0
        assert json.loads(baseline.read_text())["results"][0]["size"] == 1


class TestLoadValidation:
    def test_report_without_results_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"benchmark": "x"}))
        with pytest.raises(SystemExit):
            check_bench_regression.load_results(path)

    def test_entry_without_size_key_rejected(self, tmp_path):
        path = _write_report(tmp_path / "bad.json", [{"alpha_seconds": 1.0}])
        with pytest.raises(SystemExit):
            check_bench_regression.load_results(path)
