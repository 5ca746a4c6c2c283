"""Tests of the benchmark itself, on one small cell.

Run from the repository root: PYTHONPATH=src python -m pytest -q bench
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from padiclt.experiments import ExperimentConfig  # noqa: E402

import run  # noqa: E402
from cells import WORKLOADS, run_cell  # noqa: E402
from tracer import Tracer, bindings  # noqa: E402

SMALL = ExperimentConfig("j-homomorphism", p=3, h=2, N=4, seed=1)


def _traced_calls():
    tracer = Tracer(skip_classes=run.UNTRACED_CLASSES, leaf_names=run.LEAVES)
    tracer.install()
    try:
        result = run_cell(SMALL)
    finally:
        tracer.restore()
    return tracer, result


def test_wrappers_see_calls_inside_the_package():
    tracer, result = _traced_calls()
    calls = tracer.snapshot()["calls"]
    assert result.passed
    assert calls["experiments.run"] == 1
    assert calls["padics.scalar_mul"] > 0  # called from divalg, not from the benchmark
    assert calls["divalg.div_mul"] > 0
    assert tracer.leaf_violations == 0


def test_originals_are_restored():
    before = bindings()
    untraced = run_cell(SMALL)
    traced = _traced_calls()[1]
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert run_cell(SMALL).blob == untraced.blob == traced.blob


def test_call_counts_repeat_exactly():
    first = _traced_calls()[0].snapshot()["calls"]
    second = _traced_calls()[0].snapshot()["calls"]
    assert first == second


def test_a_raising_cell_counts_as_failed():
    cells_ = [SMALL, ExperimentConfig("height", p=4, h=2)]  # p = 4 is not prime
    correct, attempted, failed, metrics, details = run.untraced_run(cells_, 0, None)
    assert not correct
    assert (attempted, failed) == (4, 2)
    assert details["fail_ratio"] == 0.5
    assert "ConfigInvalidError" in details["failures"][0]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert sorted(m["name"] for m in spec["end_to_end"]) == sorted(
        ["pass_s", "slowest_cell_s", "setup_s", "peak_rss_mb"])
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
