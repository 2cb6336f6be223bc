"""Smoke test: every workload at its tiny size, both passes, in-process.

Holds three things together: the runner emits exactly the metric names
of :mod:`e2e_metrics`; ``BENCHMARK.json`` lists exactly those names
(and stays inside the driver's schema limits); and every oracle passes.
"""

import json
import pathlib
import re

import pytest

import run as e2e_run
from e2e_metrics import END_TO_END, PER_LAYER
from e2e_workloads import WORKLOADS

REPO = pathlib.Path(__file__).resolve().parent.parent.parent
MANIFEST = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric_and_passes_its_oracles(workload):
    from repro.datalog import parser

    parse_program = parser.parse_program
    for traced, registry in ((False, END_TO_END), (True, PER_LAYER)):
        result = e2e_run.run_workload(workload, seed=11, seconds=0,
                                      traced=traced, size="tiny")
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [m.name for m in registry]
        for metric in registry:
            emitted = result["metrics"][metric.name]
            assert emitted["unit"] == metric.unit
            assert isinstance(emitted["value"], (int, float))
    # The traced pass must leave the program as it found it.
    assert parser.parse_program is parse_program
    trace = e2e_run.OUT / f"trace-{workload}.jsonl"
    spans = [json.loads(line) for line in trace.read_text().splitlines()]
    assert {"run", "id", "name", "start_ns", "end_ns", "parent"} <= set(spans[0])
    assert any(span["name"].startswith("e2e:") for span in spans)


def test_end_to_end_values_are_never_zero():
    result = e2e_run.run_workload("tc_closure", seed=12, seconds=0,
                                  traced=False, size="tiny")
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_manifest_lists_exactly_the_runner_metrics():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert MANIFEST["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert MANIFEST["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in MANIFEST["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert [tuple(m.values()) for m in MANIFEST["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in END_TO_END]
    assert [tuple(m.values()) for m in MANIFEST["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER]


def test_manifest_stays_inside_the_driver_limits():
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in MANIFEST[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in MANIFEST["workloads"])
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    for metric in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])
    assert 1 <= MANIFEST["run_seconds"] <= 60
    # 4 + 22 runs per workload, with set-up, inside the driver's cap.
    runs = 4 + 22 * len(MANIFEST["workloads"])
    assert runs * (MANIFEST["run_seconds"] + 8) <= 3420
