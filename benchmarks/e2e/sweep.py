#!/usr/bin/env python3
"""Run the benchmark on two checkouts in pairs and keep every run's output.

    python3 benchmarks/e2e/sweep.py PARENT CHANGE --out runs/pr --runs 10
    python3 benchmarks/e2e/sweep.py . . --out runs/same --runs 10
    python3 benchmarks/e2e/sweep.py PARENT CHANGE --out runs/trace --runs 5 \\
        --trace 1 --workloads synth-segments

PARENT and CHANGE are checkouts (a directory holding BENCHMARK.json,
``benchmarks/e2e/`` and ``src/``); each runs its own copy of the
benchmark, and both must carry the same BENCHMARK.json.  For every seed
and workload the two runs go back to back, and which goes first swaps
from one pair to the next, so a slow spell of the host lands on both
sides alike.  Writes ``OUT/A/<workload>/seed-<n>.out`` for PARENT and
``OUT/B/...`` for CHANGE (each run's whole stdout); give the same checkout
twice to measure how far two sets of one commit differ.  ``compare.py
OUT/A OUT/B`` reads the result.  Runs that exit non-zero are kept and
reported.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

from checkout import load_spec


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--out", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        help="comma-separated (default: every workload)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    sides = [("A", os.path.abspath(args.parent)), ("B", os.path.abspath(args.change))]
    spec = load_spec(sides[0][1])
    if load_spec(sides[1][1]) != spec:
        parser.error("the two checkouts carry different BENCHMARK.json files")
    names = (args.workloads.split(",") if args.workloads
             else [workload["name"] for workload in spec["workloads"]])

    failures = pair = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in names:
            for label, checkout in (sides if pair % 2 == 0 else sides[::-1]):
                folder = os.path.join(args.out, label, workload)
                os.makedirs(folder, exist_ok=True)
                completed = subprocess.run(
                    [sys.executable, os.path.join("benchmarks", "e2e", "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", str(spec["run_seconds"]),
                     "--trace", str(args.trace)],
                    cwd=checkout, capture_output=True, text=True,
                )
                with open(os.path.join(folder, f"seed-{seed}.out"), "w",
                          encoding="utf-8") as handle:
                    handle.write(completed.stdout)
                status = "ok" if completed.returncode == 0 else (
                    f"exit {completed.returncode}: {completed.stderr.strip()[-200:]}")
                failures += completed.returncode != 0
                print(f"{label} {workload} seed {seed}: {status}", flush=True)
            pair += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
