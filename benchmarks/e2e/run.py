#!/usr/bin/env python3
"""End-to-end question benchmark: one workload per run.

    python3 benchmarks/e2e/run.py --workload qald-curated --seed 1
    python3 benchmarks/e2e/run.py --workload synth-segments --seed 1 --trace 1
    python3 benchmarks/e2e/run.py --workload sparql-joins --seed 1 --smoke

The unit is one user operation: a question, or a raw SPARQL query on
``sparql-joins``.  Every answer is checked (see inputs.py).  The run prints
each metric with its unit, then, as its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are BENCHMARK.json's ``end_to_end`` ones;
with ``--trace 1`` its ``per_layer`` ones, from spans (layers.py).  The
exit code is 0 only when every check passed.  README.md describes the
workloads, their cache states and how to compare two sets of runs.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from checkout import OUT, load_spec, use_source_tree

#: Most the sum of layer self times may exceed root time, as a share.
ATTRIBUTION_SLACK = 0.05


def peak_rss_mb() -> float:
    """This process's peak resident set (VmHWM), in MiB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def end_to_end(outcome) -> tuple[dict, dict]:
    """The end-to-end metrics, and a note per metric for the printout.

    Times are at the reference host speed (``workloads.Timings``); the
    notes give them as measured, and the factor between the two.
    """
    setup = outcome.setup_summary()
    values = {"setup_s": setup["median"], "peak_rss_mb": peak_rss_mb()}
    notes = {"setup_s": f"median of {setup['count']}; {setup['measured']:.6g} "
                        f"as measured, host factor {setup['factor']:.3f}"}
    for name in ("cold", "warm"):
        summary = outcome.phases[name].summary()
        tail = summary["fraction"]
        values[f"{name}_p50_ms"] = summary["p50"]
        values[f"{name}_tail_ms"] = summary["tail"]
        notes[f"{name}_p50_ms"] = (
            f"{summary['how']}; {summary['measured']['p50']:.6g} as measured, "
            f"host factor {summary['factor']:.3f}")
        notes[f"{name}_tail_ms"] = (
            f"{'max' if tail == 1.0 else f'p{tail * 100:g}'}; "
            f"{summary['measured']['tail']:.6g} as measured")
    return values, notes


def per_layer(outcome, trace) -> tuple[dict, dict, list]:
    """The per-layer metrics, notes, and any attribution problem."""
    values = trace.metrics()
    untraced = outcome.phases["warm"].summary()["p50"]
    traced = outcome.phases["warm_traced"].summary()["p50"]
    values["bench.trace_overhead_frac"] = traced / untraced - 1.0
    values["bench.answered_frac"] = outcome.answered / outcome.attempted
    notes = {
        "bench.trace_overhead_frac": f"warm p50 {traced:.4f} ms traced, "
                                     f"{untraced:.4f} ms untraced",
        "bench.attributed_frac": f"{trace.ops} traced operations",
    }
    problems = []
    if abs(values["bench.attributed_frac"] - 1.0) > ATTRIBUTION_SLACK:
        problems.append("layer self times do not add up to root time")
    return values, notes, problems


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        help="must equal BENCHMARK.json's run_seconds: a "
                             "run's length is part of the benchmark")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="scale-4 KB and 1 s of phases (for the smoke test)")
    args = parser.parse_args()

    spec = load_spec()
    if args.seconds is not None and args.seconds != spec["run_seconds"]:
        parser.error(f"--seconds {args.seconds:g} differs from BENCHMARK.json's "
                     f"run_seconds ({spec['run_seconds']}); runs of other "
                     "lengths would not compare")
    use_source_tree()

    import workloads
    from layers import LayerTrace

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    profile = workloads.SMOKE if args.smoke else workloads.FULL
    trace = LayerTrace() if args.trace else workloads.NoTrace()
    outcome = workloads.WORKLOADS[args.workload](
        profile, random.Random(args.seed), trace
    )

    problems = list(outcome.problems)
    if args.trace:
        values, notes, attribution = per_layer(outcome, trace)
        problems += attribution
        declared = spec["per_layer"]
        os.makedirs(OUT, exist_ok=True)
        trace.dump(os.path.join(OUT, f"{args.workload}-seed{args.seed}.jsonl"))
    else:
        values, notes = end_to_end(outcome)
        declared = spec["end_to_end"]

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"error: metrics not computed: {', '.join(missing)}")
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<40} {values[name]:>14.6g} {unit}{note}")
    for problem in problems:
        print(f"FAILED CHECK: {problem}")
    if outcome.failed:
        print(f"FAILED CHECK: {outcome.failed} of {outcome.attempted} "
              "operations got a wrong answer")
    correct = not problems and not outcome.failed
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
