#!/usr/bin/env python3
"""Summarise one set of runs, or compare two.

    python3 benchmarks/e2e/compare.py runs/pr/A             # spread of A
    python3 benchmarks/e2e/compare.py runs/pr/A runs/pr/B   # A = parent, B = change

A set is a directory of ``<workload>/seed-<n>.out`` files (sweep.py
writes two, run in pairs); the last line of each is the run's JSON
result.  For every workload and metric it prints the median and
quartiles (Python's ``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median,
next to the metric's bound in BENCHMARK.json; beside each per-layer
metric, what it should move (``layers.PREDICTIONS``).

Given two sets, each end-to-end metric gets a verdict, by the rule of the
choosing-metrics guide, first match wins:

* ``better`` — at least ten seed-paired runs, B wins at least 9 in 10 of
  them (ties count for neither), and B's median is better than A's by
  more than A's quartile distance;
* ``unresolved`` — either set's spread exceeds the bound, unless every run
  of B reads better than every run of A (then ``unchanged``: no
  regression, but no gain shown either);
* ``worse`` — B's median is worse than A's by more than the bound;
* ``unchanged`` — otherwise.

Exit status: 1 if a run was incorrect, if one set has a spread above its
bound, or if two sets give a ``worse`` verdict.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

from checkout import load_spec
from layers import prediction


def load_set(folder: str) -> dict:
    """workload -> seed -> result dict."""
    runs: dict = {}
    for workload in sorted(os.listdir(folder)):
        path = os.path.join(folder, workload)
        if not os.path.isdir(path):
            continue
        for name in sorted(os.listdir(path)):
            if not (name.startswith("seed-") and name.endswith(".out")):
                continue
            with open(os.path.join(path, name), encoding="utf-8") as handle:
                lines = [line for line in handle.read().splitlines() if line.strip()]
            if not lines:
                continue
            seed = int(name[len("seed-"):-len(".out")])
            runs.setdefault(workload, {})[seed] = json.loads(lines[-1])
    return runs


def summary(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list) -> float:
    q1, median, q3 = summary(values)
    return (q3 - q1) / median if median else 0.0


def verdict(metric: dict, a: dict, b: dict) -> str:
    """a, b: seed -> value."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]

    def better(x: float, y: float) -> bool:
        return x < y if lower else x > y

    a_values, b_values = list(a.values()), list(b.values())
    q1_a, median_a, q3_a = summary(a_values)
    median_b = summary(b_values)[1]
    worse_by = (median_b - median_a) if lower else (median_a - median_b)
    paired = [seed for seed in a if seed in b]
    wins = sum(better(b[seed], a[seed]) for seed in paired)
    if len(paired) >= 10 and wins >= 0.9 * len(paired) and -worse_by > q3_a - q1_a:
        return "better"
    if spread(a_values) > bound or spread(b_values) > bound:
        if all(better(x, y) for x in b_values for y in a_values):
            return "unchanged"
        return "unresolved"
    if median_a and worse_by / median_a > bound:
        return "worse"
    return "unchanged"


def main(argv: list) -> int:
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    spec = load_spec()
    sets = [load_set(folder) for folder in argv]
    status = 0
    for workload in sorted(set().union(*sets)):
        per_set = [found.get(workload, {}) for found in sets]
        counts = " vs ".join(str(len(runs)) for runs in per_set)
        print(f"\n== {workload}  ({counts} runs)")
        for label, runs in zip("AB", per_set):
            bad = [seed for seed, result in runs.items() if not result["correct"]]
            failed = sum(result["failed"] for result in runs.values())
            if bad or failed:
                status = 1
                print(f"  set {label}: incorrect runs {bad}, "
                      f"failed operations {failed}")
        first = next(iter(per_set[0].values()), {"metrics": {}})["metrics"]
        for metric in spec["end_to_end"] + spec["per_layer"]:
            name = metric["name"]
            if name not in first:
                continue
            values = [
                {seed: run["metrics"][name]["value"] for seed, run in runs.items()}
                for runs in per_set
            ]
            bound = metric.get("bound")
            cells = []
            for label, by_seed in zip("AB", values):
                if not by_seed:
                    cells.append(f"{label}: no runs")
                    continue
                q1, median, q3 = summary(list(by_seed.values()))
                width = spread(list(by_seed.values()))
                cells.append(f"{label} {median:.6g} [{q1:.6g}, {q3:.6g}] "
                             f"spread {width:.3f}")
                if len(sets) == 1 and bound is not None and width > bound:
                    status = 1
            line = f"  {name:<38} " + "  ".join(cells)
            if bound is not None:
                line += f"  bound {bound}"
                if len(sets) == 2 and all(values):
                    outcome = verdict(metric, values[0], values[1])
                    line += f"  -> {outcome}"
                    status |= outcome == "worse"
            else:
                line += f"  ({prediction(name)})"
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
