#!/usr/bin/env python
"""KB scale benchmark: in-heap dict backend vs mmap segment shards.

Builds the deterministic synthetic KB at ``--scale`` (default 160 — about
800k triples, 10x the largest scale the engine benchmarks use), writes a
hash-sharded segment directory (``build_segments_s`` includes mining the
resources the directory ships), and then runs the same join-heavy
workload in **two isolated subprocesses**:

* ``memory``   — rebuilds the KB in-heap (the single-process baseline:
  cold start pays record materialisation + dict index build, peak RSS
  holds every triple and term as Python objects);
* ``segments`` — opens the segment directory (cold start is manifest +
  checksum validation; the triples stay mmapped on disk) and serves the
  same queries through the identical engine, with the inline
  scatter-gather executor installed for the subject-star queries.

Each lane reports its own wall-clock load time, per-query latencies, peak
RSS (``ru_maxrss`` of the lane process), and canonicalised answers.  The
parent compares answers across lanes — every SELECT in the workload is
ORDER BY'd, so the comparison is **byte-identical row for row** (COUNT and
ASK compare by value) — and exits non-zero on any divergence.  Outside
``--quick`` it also enforces the headline claim: segmented peak RSS below
the single-heap baseline.

Two more lanes time the **first answer** of a question-answering server,
each in a process of its own so the engine lanes' RSS keeps its meaning:
``first_memory`` loads the KB in-heap and builds the QA system over it
(mining its resources), ``first_segments`` opens the segment directory
and builds the KB and the system from the resources it ships.  Both then
answer :data:`FIRST_QUESTION`; ``first_answer_speedup`` is their ratio.

Usage:
    python benchmarks/bench_kb_scale.py --output BENCH_kb_scale.json
    python benchmarks/bench_kb_scale.py --quick   # CI smoke (small scale)
    python benchmarks/bench_kb_scale.py --lane memory ...   # internal
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

#: The workload: join-heavy, every SELECT fully ordered so answers are
#: comparable byte for byte.  ``star`` queries are subject-star (eligible
#: for scatter-gather); ``path`` joins hop across subjects and exercise
#: the merged multi-shard scans.
WORKLOAD = [
    (
        "star_writer_place",
        "SELECT ?w ?c WHERE { ?w a dbo:Writer . ?w dbo:birthPlace ?c . "
        "?w dbo:height ?h } ORDER BY ?w ?c",
    ),
    (
        "star_book_pages",
        "SELECT ?b ?n WHERE { ?b a dbo:Novel . ?b dbo:numberOfPages ?n . "
        "?b dbo:author ?a } ORDER BY ?n ?b LIMIT 500",
    ),
    (
        "star_city_filter",
        "SELECT ?c ?p WHERE { ?c a dbo:City . ?c dbo:populationTotal ?p . "
        "FILTER(?p > 1000000) } ORDER BY ?p ?c",
    ),
    (
        "path_book_country",
        "SELECT ?b ?co WHERE { ?b dbo:author ?w . ?w dbo:birthPlace ?c . "
        "?c dbo:country ?co } ORDER BY ?b ?co LIMIT 500",
    ),
    (
        "path_writer_capital",
        "SELECT ?w ?cap WHERE { ?w dbo:birthPlace ?c . ?c dbo:country ?co . "
        "?co dbo:capital ?cap } ORDER BY ?w ?cap LIMIT 500",
    ),
    (
        "count_writers",
        "SELECT (COUNT(?w) AS ?n) WHERE { ?w a dbo:Writer . "
        "?w dbo:birthPlace ?c }",
    ),
    (
        "ask_tall_writer",
        "ASK { ?w a dbo:Writer . ?w dbo:height ?h . FILTER(?h > 2.0) }",
    ),
]

#: The join-heavy lane: selective two-star conjunctions — the semi-join
#: shipping class (two subject variables, shared join variable,
#: pushdown-eligible filters).  Every query is fully ordered so lane
#: answers compare byte for byte against the in-memory oracle.  Both join
#: lanes time cold queries: engine-level result caches are cleared before
#: every repeat, and the scatter lane empties its per-shard result caches
#: too, so ``scatter_join_speedup`` compares cold with cold.
JOIN_WORKLOAD = [
    (
        "join_tall_writer_big_city",
        "SELECT ?w ?c WHERE { ?w a dbo:Writer . ?w dbo:height ?h . "
        "?w dbo:birthPlace ?c . FILTER(?h > 2.05) . ?c a dbo:City . "
        "?c dbo:populationTotal ?p . FILTER(?p > 5000000) } ORDER BY ?w ?c",
    ),
    (
        "join_long_novel_tall_author",
        "SELECT ?b ?w WHERE { ?b a dbo:Novel . ?b dbo:numberOfPages ?n . "
        "?b dbo:author ?w . FILTER(?n > 900) . ?w a dbo:Writer . "
        "?w dbo:height ?h . FILTER(?h > 1.95) } ORDER BY ?b ?w",
    ),
    (
        "join_short_writer_small_city",
        "SELECT ?w ?p WHERE { ?w a dbo:Writer . ?w dbo:height ?h . "
        "?w dbo:birthPlace ?c . FILTER(?h < 1.55) . ?c a dbo:City . "
        "?c dbo:populationTotal ?p . FILTER(?p < 200000) } ORDER BY ?w ?p",
    ),
    (
        "join_heavy_book_city",
        "SELECT ?b ?c WHERE { ?b a dbo:Novel . ?b dbo:numberOfPages ?n . "
        "?b dbo:author ?w . FILTER(?n > 850) . ?w dbo:birthPlace ?c . "
        "?w dbo:height ?h . FILTER(?h > 1.9) } ORDER BY ?b ?c LIMIT 500",
    ),
    (
        "join_ask_giant_pair",
        "ASK { ?w a dbo:Writer . ?w dbo:height ?h . FILTER(?h > 2.09) . "
        "?w dbo:birthPlace ?c . ?c dbo:populationTotal ?p . "
        "FILTER(?p > 8000000) }",
    ),
]


#: The question the first-answer lanes answer (its writer exists at
#: every scale).
FIRST_QUESTION = "Where was Alan Adler 0 born?"


def _canonical(result) -> list:
    """Canonical, JSON-stable form of one query result."""
    if hasattr(result, "rows"):
        return [
            [None if term is None else term.n3() for term in row]
            for row in result.rows
        ]
    return [bool(result.value)]


def _peak_rss_mb() -> float:
    # /proc VmHWM resets on execve; Linux ru_maxrss is inherited across
    # fork+exec and would report the spawning parent's peak instead.
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return round(int(line.split()[1]) / 1024.0, 1)
    except OSError:
        pass
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - bytes on macOS
        peak //= 1024
    return round(peak / 1024.0, 1)


def run_lane(args) -> dict:
    """One isolated measurement process; prints a JSON document."""
    from repro.sparql import SparqlEngine

    if args.lane == "build":
        from repro.kb import build_segments, load_synthetic_kb

        start = time.perf_counter()
        kb = load_synthetic_kb(scale=args.scale, seed=args.seed)
        build_kb_s = time.perf_counter() - start
        start = time.perf_counter()
        manifest = build_segments(kb.graph, args.segments, shards=args.shards)
        print(
            json.dumps(
                {
                    "triples": manifest["triples"],
                    "shards": manifest["shards"],
                    "fingerprint": manifest["fingerprint"],
                    "build_kb_s": round(build_kb_s, 3),
                    "build_segments_s": round(time.perf_counter() - start, 3),
                    "mine_s": round(manifest["mine_s"], 3),
                }
            )
        )
        return {}
    if args.lane.startswith("first_"):
        return run_first_answer_lane(args)

    start = time.perf_counter()
    if args.lane == "memory":
        from repro.kb import load_synthetic_kb

        kb = load_synthetic_kb(scale=args.scale, seed=args.seed)
        engine = kb.engine
        triples = len(kb.graph)
        executor = None
    else:
        from repro.kb import SegmentedBackend
        from repro.sparql import ScatterGatherExecutor

        backend = SegmentedBackend(args.segments).open()
        engine = SparqlEngine(backend.graph_view())
        executor = None
        if args.lane != "join_plain":
            executor = ScatterGatherExecutor(backend)
            engine.install_scatter(executor)
        triples = len(backend)
    load_s = time.perf_counter() - start

    if args.lane in ("memory", "segments"):
        workload = list(WORKLOAD)
        if args.lane == "memory":
            workload += JOIN_WORKLOAD  # the join lanes' oracle answers
    else:
        workload = list(JOIN_WORKLOAD)

    answers: dict[str, list] = {}
    latencies: dict[str, float] = {}
    for name, text in workload:
        best = None
        for __ in range(args.repeats):
            engine.clear_caches()
            if executor is not None:
                executor.invalidate_caches()  # cold: no cached shard batch
            begin = time.perf_counter()
            result = engine.query(text)
            elapsed = time.perf_counter() - begin
            best = elapsed if best is None else min(best, elapsed)
        answers[name] = _canonical(result)
        latencies[name] = round(best, 6)
    if executor is not None:
        executor.close()

    print(
        json.dumps(
            {
                "lane": args.lane,
                "triples": triples,
                "load_s": round(load_s, 3),
                "peak_rss_mb": _peak_rss_mb(),
                "latency_s": latencies,
                "answers": answers,
            }
        )
    )
    return {}


def run_first_answer_lane(args) -> dict:
    """Time from nothing to the first answer of a fresh QA system."""
    from repro.api import QuestionAnsweringSystem

    start = time.perf_counter()
    if args.lane == "first_memory":
        from repro.kb import load_synthetic_kb

        kb = load_synthetic_kb(scale=args.scale, seed=args.seed)
    else:
        from repro.kb import (
            KnowledgeBase,
            SegmentedBackend,
            build_dbpedia_ontology,
        )

        backend = SegmentedBackend(args.segments).open()
        kb = KnowledgeBase.from_backend(build_dbpedia_ontology(), backend)
    kb_s = time.perf_counter() - start
    system = QuestionAnsweringSystem.over(kb)
    system_s = time.perf_counter() - start - kb_s
    answer = system.answer(FIRST_QUESTION)
    first_answer_s = time.perf_counter() - start
    print(
        json.dumps(
            {
                "lane": args.lane,
                "kb_s": round(kb_s, 3),
                "system_s": round(system_s, 3),
                "first_answer_s": round(first_answer_s, 3),
                "peak_rss_mb": _peak_rss_mb(),
                "answers": [term.n3() for term in answer.answers],
            }
        )
    )
    return {}


def _spawn_lane(lane: str, args, segments: str) -> dict:
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--lane", lane,
        "--scale", str(args.scale),
        "--seed", str(args.seed),
        "--shards", str(args.shards),
        "--repeats", str(args.repeats),
        "--segments", segments,
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    completed = subprocess.run(
        command, capture_output=True, text=True, env=env, check=True
    )
    return json.loads(completed.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=int, default=160,
                        help="synthetic KB scale (default 160, ~800k triples)")
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--shards", type=int, default=8)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: scale 6, 4 shards, 1 repeat")
    parser.add_argument("--output", default="BENCH_kb_scale.json")
    parser.add_argument(
        "--lane",
        choices=[
            "build", "memory", "segments", "join_plain", "join_inline",
            "first_memory", "first_segments",
        ],
        help=argparse.SUPPRESS,
    )
    parser.add_argument("--segments", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.lane:
        return bool(run_lane(args))

    if args.quick:
        args.scale, args.shards, args.repeats = 6, 4, 1

    # The build runs in a subprocess too: the parent stays small, so the
    # lane processes fork from a slim image and their peak-RSS numbers are
    # theirs alone.
    with tempfile.TemporaryDirectory(prefix="kbseg-") as segments:
        print(f"building synthetic KB (scale={args.scale}) ...", flush=True)
        manifest = _spawn_lane("build", args, segments)
        print(
            f"  wrote {manifest['shards']} shards "
            f"({manifest['triples']} triples) in "
            f"{manifest['build_kb_s'] + manifest['build_segments_s']:.1f}s",
            flush=True,
        )

        lanes = {
            lane: _spawn_lane(lane, args, segments)
            for lane in (
                "memory", "segments", "join_plain", "join_inline",
                "first_memory", "first_segments",
            )
        }

    memory, segmented = lanes["memory"], lanes["segments"]
    join_names = [name for name, __ in JOIN_WORKLOAD]
    oracle_joins = {name: memory["answers"][name] for name in join_names}
    join_divergent = [
        (lane, name)
        for lane in ("join_plain", "join_inline")
        for name in join_names
        if lanes[lane]["answers"][name] != oracle_joins[name]
    ]
    first_memory, first_segments = lanes["first_memory"], lanes["first_segments"]
    first_identical = (
        first_memory["answers"] == first_segments["answers"]
        and bool(first_memory["answers"])
    )
    identical = (
        {
            name: memory["answers"][name] for name, __ in WORKLOAD
        } == segmented["answers"]
        and not join_divergent
        and first_identical
    )

    def _join_total(lane: str) -> float:
        return sum(lanes[lane]["latency_s"][name] for name in join_names)
    rss_below = segmented["peak_rss_mb"] < memory["peak_rss_mb"]
    report = {
        "benchmark": "kb_scale",
        "quick": args.quick,
        "scale": args.scale,
        "shards": args.shards,
        "repeats": args.repeats,
        "triples": memory["triples"],
        "segment_fingerprint": manifest["fingerprint"],
        "identical_answers": identical,
        "segments_rss_below_memory": rss_below,
        "build_segments_s": manifest["build_segments_s"],
        "mine_s": manifest["mine_s"],
        # Nothing to the first answer: in-heap KB + mined resources vs
        # opened segments + the resources they ship.
        "first_answer_s": {
            "memory": first_memory["first_answer_s"],
            "segments": first_segments["first_answer_s"],
        },
        "first_answer_speedup": round(
            first_memory["first_answer_s"]
            / max(first_segments["first_answer_s"], 1e-9),
            2,
        ),
        # Cold semi-join scatter vs cold single-process joins over the
        # same segments (every cache emptied before every repeat).
        "scatter_join_speedup": round(
            _join_total("join_plain") / max(_join_total("join_inline"), 1e-9),
            2,
        ),
        "lanes": {
            lane: {key: value for key, value in data.items() if key != "answers"}
            for lane, data in lanes.items()
        },
        "queries": [
            {
                "name": name,
                "rows": len(memory["answers"][name]),
                "memory_s": memory["latency_s"][name],
                "segments_s": segmented["latency_s"][name],
            }
            for name, __ in WORKLOAD
        ],
        "join_queries": [
            {
                "name": name,
                "rows": len(memory["answers"][name]),
                "memory_s": memory["latency_s"][name],
                "plain_s": lanes["join_plain"]["latency_s"][name],
                "inline_s": lanes["join_inline"]["latency_s"][name],
            }
            for name in join_names
        ],
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    print(f"\nreport written to {args.output}")
    print(f"  identical_answers:          {identical}")
    print(
        f"  peak RSS:                   memory {memory['peak_rss_mb']}MB, "
        f"segments {segmented['peak_rss_mb']}MB"
    )
    print(
        f"  first answer:               memory "
        f"{first_memory['first_answer_s']}s, segments "
        f"{first_segments['first_answer_s']}s "
        f"({report['first_answer_speedup']}x; building the segments "
        f"took {manifest['build_segments_s']}s, {manifest['mine_s']}s "
        f"of it mining)"
    )
    print(
        f"  scatter join speedup:       "
        f"{report['scatter_join_speedup']}x (cold scatter vs cold plain)"
    )
    if not identical:
        for name, __ in WORKLOAD:
            if memory["answers"][name] != segmented["answers"][name]:
                print(f"  DIVERGENT: {name}", file=sys.stderr)
        for lane, name in join_divergent:
            print(f"  DIVERGENT: {lane}/{name}", file=sys.stderr)
        if not first_identical:
            print(f"  DIVERGENT: first answer to {FIRST_QUESTION!r}",
                  file=sys.stderr)
        return 1
    if not args.quick and not rss_below:
        print("  FAIL: segmented peak RSS not below in-heap baseline",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
