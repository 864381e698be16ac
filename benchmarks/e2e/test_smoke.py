"""Smoke test of the end-to-end benchmark (scale-4 KB, short phases).

    PYTHONPATH=src python -m pytest benchmarks/e2e

Every workload runs untraced and traced; each run must be correct, fail
no operation (``error_frac`` 0: QALD's pinned wrong answers are expected
outputs, not failures) and emit exactly the metrics BENCHMARK.json names,
each with its unit.  Every per-layer metric has a prediction.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

from checkout import load_spec  # noqa: E402
from layers import PREDICTIONS  # noqa: E402

SPEC = load_spec()


def _run(cwd: str, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "benchmarks", "e2e", "run.py"),
         "--workload", workload, "--seed", "7", "--trace", str(trace),
         "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_run_emits_every_declared_metric(workload, trace):
    completed = _run(ROOT, workload, trace)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] / result["attempted"] == 0.0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_every_per_layer_metric_has_one_prediction():
    predicted = [name for names, *__ in PREDICTIONS for name in names]
    assert sorted(predicted) == sorted(m["name"] for m in SPEC["per_layer"])


def test_run_refuses_another_length():
    completed = _run(ROOT, "qald-curated", 0, "--seconds",
                     str(SPEC["run_seconds"] + 1))
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_run_without_source_tree_fails_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".cache", ".out", "__pycache__"))
    completed = _run(str(tmp_path), "qald-curated", 0)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
