"""P1 — SPARQL engine performance on generated knowledge bases.

Measures the store and executor on DBpedia-shaped synthetic data at
growing scales: point lookups, star joins, path joins, filter scans and
aggregation.  Demonstrates that the selectivity-ordered planner keeps join
cost tied to the small relation, not the scan.

    pytest benchmarks/bench_sparql_engine.py --benchmark-only

Run as a script for the id-space vs term-space engine comparison (see
docs/performance.md, "Engine architecture"): both engines answer the same
join-heavy workload with result caching off, answers are checked for
equality as multisets, and a BENCH JSON artifact reports per-query and
aggregate speedups::

    PYTHONPATH=src python benchmarks/bench_sparql_engine.py \
        --repeats 30 --output BENCH_sparql_engine.json

``--quick`` shrinks the KB and repeat count for the CI smoke job.
"""

import argparse
import gc
import json
import sys
import time
from collections import Counter

import pytest

from repro.kb import load_synthetic_kb

SCALES = [1, 4, 16]


@pytest.fixture(scope="module", params=SCALES, ids=lambda s: f"scale{s}")
def synthetic(request):
    kb = load_synthetic_kb(scale=request.param)
    return request.param, kb


def test_point_lookup(benchmark, synthetic):
    scale, kb = synthetic
    query = "SELECT ?p WHERE { res:SynWriter_0 dbont:birthPlace ?p }"
    result = benchmark(kb.select, query)
    assert len(result) == 1


def test_type_scan(benchmark, synthetic):
    scale, kb = synthetic
    result = benchmark(kb.select, "SELECT ?b WHERE { ?b a dbont:Novel }")
    assert len(result) == 300 * scale


def test_star_join(benchmark, synthetic):
    scale, kb = synthetic
    query = """
        SELECT ?b ?p WHERE {
          ?b a dbont:Novel .
          ?b dbont:author res:SynWriter_1 .
          ?b dbont:numberOfPages ?p .
        }
    """
    result = benchmark(kb.select, query)
    assert len(result) == 3


def test_path_join(benchmark, synthetic):
    scale, kb = synthetic
    query = """
        SELECT ?b WHERE {
          ?b dbont:author ?w .
          ?w dbont:birthPlace ?c .
          ?c dbont:country res:SynCountry_0 .
        }
    """
    result = benchmark(kb.select, query)
    assert len(result) > 0


def test_filter_scan(benchmark, synthetic):
    scale, kb = synthetic
    query = """
        SELECT ?b WHERE {
          ?b dbont:numberOfPages ?p FILTER (?p > 1000)
        }
    """
    result = benchmark(kb.select, query)
    assert len(result) >= 0


def test_count_aggregate(benchmark, synthetic):
    scale, kb = synthetic
    result = benchmark(kb.select, "SELECT COUNT(?b) WHERE { ?b a dbont:Book }")
    assert result.scalar() == 300 * scale


def test_order_by_limit(benchmark, synthetic):
    scale, kb = synthetic
    query = """
        SELECT ?c WHERE { ?c a dbont:City . ?c dbont:populationTotal ?p }
        ORDER BY DESC(?p) LIMIT 5
    """
    result = benchmark(kb.select, query)
    assert len(result) == 5


def test_graph_load(benchmark, synthetic):
    """Store construction throughput (dictionary encoding + 3 indexes)."""
    scale, kb = synthetic
    triples = list(kb.graph)

    def rebuild():
        from repro.rdf import Graph
        return Graph(triples)

    graph = benchmark(rebuild)
    assert len(graph) == len(kb.graph)


# ---------------------------------------------------------------------------
# The 500k-triple end of the P1 range: built once, queried with single-round
# pedantic timing (construction dominates; queries must stay index-bound).
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def big_kb():
    return load_synthetic_kb(scale=100)  # ~460k triples


def test_big_scale_point_lookup(benchmark, big_kb):
    result = benchmark.pedantic(
        big_kb.select,
        args=("SELECT ?p WHERE { res:SynWriter_4999 dbont:birthPlace ?p }",),
        rounds=20,
    )
    assert len(result) == 1


def test_big_scale_star_join(benchmark, big_kb):
    query = """
        SELECT ?b ?p WHERE {
          ?b a dbont:Novel .
          ?b dbont:author res:SynWriter_77 .
          ?b dbont:numberOfPages ?p .
        }
    """
    result = benchmark.pedantic(big_kb.select, args=(query,), rounds=10)
    assert len(result) == 3


def test_big_scale_path_join(benchmark, big_kb):
    query = """
        SELECT ?b WHERE {
          ?b dbont:author ?w .
          ?w dbont:birthPlace ?c .
          ?c dbont:country res:SynCountry_1 .
        }
    """
    result = benchmark.pedantic(big_kb.select, args=(query,), rounds=5)
    assert len(result) > 0


def test_big_scale_count(benchmark, big_kb):
    result = benchmark.pedantic(
        big_kb.select,
        args=("SELECT COUNT(?b) WHERE { ?b a dbont:Book }",),
        rounds=3,
    )
    assert result.scalar() == 30000


# ---------------------------------------------------------------------------
# Script mode: term-space oracle vs columnar id-space
# ---------------------------------------------------------------------------

#: The join-heavy comparison workload.  Multi-pattern joins are where the
#: term-space evaluator pays its per-row decode + dict-copy tax and where
#: the columnar engine amortises per-row python into whole-column batch
#: operators, so they carry the speedup acceptance gates; the
#: single-pattern scans are included to show neither engine regresses the
#: easy cases.
WORKLOAD = [
    ("star_join", """
        SELECT ?b ?p WHERE {
          ?b a dbont:Novel .
          ?b dbont:author res:SynWriter_1 .
          ?b dbont:numberOfPages ?p .
        }
    """, True),
    ("path_join", """
        SELECT ?b WHERE {
          ?b dbont:author ?w .
          ?w dbont:birthPlace ?c .
          ?c dbont:country res:SynCountry_0 .
        }
    """, True),
    ("type_author_join", """
        SELECT ?b ?w WHERE {
          ?b a dbont:Novel .
          ?b dbont:author ?w .
        }
    """, True),
    ("type_scan", "SELECT ?b WHERE { ?b a dbont:Novel }", False),
    ("filter_scan", """
        SELECT ?b WHERE {
          ?b dbont:numberOfPages ?p FILTER (?p > 1000)
        }
    """, False),
    ("order_by_limit", """
        SELECT ?c WHERE { ?c a dbont:City . ?c dbont:populationTotal ?p }
        ORDER BY DESC(?p) LIMIT 5
    """, True),
    ("count_aggregate", "SELECT COUNT(?b) WHERE { ?b a dbont:Book }", False),
]

#: (mode key, engine constructor kwargs).  ``term`` is the original
#: term-space evaluator (the reference oracle) and ``columnar`` the
#: production id-space engine.
MODES = [
    ("term", {"idspace": False}),
    ("columnar", {"idspace": True}),
]


def _time_engine(engine, ast, repeats: int) -> tuple[float, object]:
    engine.query(ast)  # warmup: touch the indexes
    # Cyclic GC pauses (~20ms on the synthetic store's object graph) would
    # otherwise land in whichever timing window crosses the gen-2
    # allocation threshold and swamp sub-millisecond queries.
    gc.collect()
    gc.disable()
    try:
        result = None
        start = time.perf_counter()
        for _ in range(repeats):
            result = engine.query(ast)
        return time.perf_counter() - start, result
    finally:
        gc.enable()


def run_comparison(scale: int, repeats: int) -> dict:
    from repro.sparql.engine import SparqlEngine
    from repro.sparql.parser import parse_query

    kb = load_synthetic_kb(scale=scale)
    # Result caching off in every engine: this measures evaluation, not
    # memoization.  The columnar engine then compiles its plan on every
    # repetition, which is what a cold query costs in production.
    engines = {
        mode: SparqlEngine(kb.graph, cache_size=0, **kwargs)
        for mode, kwargs in MODES
    }

    queries: list[dict] = []
    identical = True
    join_totals = {mode: 0.0 for mode, __ in MODES}
    for name, text, join_heavy in WORKLOAD:
        ast = parse_query(text)
        timings = {}
        results = {}
        for mode, __ in MODES:
            timings[mode], results[mode] = _time_engine(
                engines[mode], ast, repeats
            )
        # ORDER BY is deterministic across engines (stable sort + id-order
        # tie-break, docs/performance.md), so ordered results compare
        # byte-for-byte; unordered results compare as multisets (the
        # engines enumerate joins differently).
        ordered = bool(getattr(ast, "order_by", ()))
        reference = results["term"]
        if ordered:
            same = all(
                results[mode].rows == reference.rows for mode, __ in MODES
            )
        else:
            expected = Counter(reference.rows)
            same = all(
                Counter(results[mode].rows) == expected for mode, __ in MODES
            )
        identical = identical and same
        if join_heavy:
            for mode, __ in MODES:
                join_totals[mode] += timings[mode]

        def ratio(num: float, den: float) -> float:
            return round(num / den, 2) if den else 0.0

        queries.append({
            "query": name,
            "join_heavy": join_heavy,
            "rows": len(reference.rows),
            "termspace_seconds": round(timings["term"], 4),
            "columnar_seconds": round(timings["columnar"], 4),
            "columnar_vs_term_speedup": ratio(
                timings["term"], timings["columnar"]
            ),
            "identical": same,
        })

    def aggregate(num_mode: str, den_mode: str) -> float:
        denominator = join_totals[den_mode]
        return round(join_totals[num_mode] / denominator, 2) if denominator else 0.0

    return {
        "benchmark": "sparql_engine_columnar",
        "scale": scale,
        "repeats": repeats,
        "identical_answers": identical,
        "join_heavy_speedup_columnar_vs_term": aggregate("term", "columnar"),
        # Backward-compatible key: best engine vs the term-space oracle.
        "join_heavy_speedup": aggregate("term", "columnar"),
        "columnar_not_slower_than_term": (
            join_totals["columnar"] <= join_totals["term"]
        ),
        "queries": queries,
    }


def _print_table(report: dict) -> None:
    header = (
        f"{'query':<20} {'rows':>6} {'term (s)':>9} {'col (s)':>9} "
        f"{'col/term':>9}  ok"
    )
    print(header)
    print("-" * len(header))
    for entry in report["queries"]:
        print(
            f"{entry['query']:<20} {entry['rows']:>6} "
            f"{entry['termspace_seconds']:>9.4f} "
            f"{entry['columnar_seconds']:>9.4f} "
            f"{entry['columnar_vs_term_speedup']:>8.2f}x  "
            f"{'yes' if entry['identical'] else 'NO'}"
        )
    print(
        "join-heavy aggregate: columnar "
        f"{report['join_heavy_speedup_columnar_vs_term']:.2f}x over term"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare the term-space oracle and the columnar engine."
    )
    parser.add_argument("--scale", type=int, default=16,
                        help="synthetic KB scale factor (default 16)")
    parser.add_argument("--repeats", type=int, default=30,
                        help="evaluations per query per engine (default 30)")
    parser.add_argument("--output", default=None,
                        help="write the BENCH JSON artifact here")
    parser.add_argument("--quick", action="store_true",
                        help="small KB + few repeats: CI smoke, no speedup gate")
    args = parser.parse_args(argv)

    scale = 2 if args.quick else args.scale
    repeats = 5 if args.quick else args.repeats
    report = run_comparison(scale, repeats)
    report["quick"] = args.quick

    _print_table(report)
    print("BENCH " + json.dumps(report))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")

    if not report["identical_answers"]:
        print("ANSWER MISMATCH between engines", file=sys.stderr)
        return 1
    if not report["columnar_not_slower_than_term"]:
        print(
            "REGRESSION: columnar slower than the term-space oracle on the "
            "join-heavy group",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
