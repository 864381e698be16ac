"""Differential harness: term-space oracle vs the columnar id-space engine.

Every property executes one generated query on both engines and asserts
identical decoded solutions.  Because ORDER BY is deterministic
across engines (stable sort + the id-order tie-break, docs/performance.md)
ordered results are compared *exactly* — row for row, even under
LIMIT/OFFSET — with no order-insensitive fallback.  Unordered results are
compared as multisets (SPARQL result sets carry no order, and the engines
enumerate joins differently).

The default profile runs 200 examples per property; the nightly CI lane
(HYPOTHESIS_PROFILE=nightly) runs 1000 — see tests/conftest.py.  A seeded
fixed-workload sweep (no shrinking, reproducible by seed) backs the
property tests for the conjunctive join-heavy shapes the columnar engine
optimises.
"""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rdf import Graph, IRI, Triple, Variable
from repro.sparql import columnar
from repro.sparql import compiler
from repro.sparql.ast import AskQuery, CountAggregate, SelectQuery
from repro.sparql.engine import SparqlEngine

from tests.sparql import querygen


def _engines(graph):
    """(oracle, columnar) — caches off so every run re-executes."""
    return (
        SparqlEngine(graph, cache_size=0, idspace=False),
        SparqlEngine(graph, cache_size=0),
    )


def _assert_select_agrees(query, expected, actual, oracle=None):
    assert actual.variables == expected.variables
    if query.order_by:
        # Deterministic total order: exact comparison, slices included.
        assert actual.rows == expected.rows
    elif query.limit is not None or query.offset:
        # Unordered slice: any |slice| rows drawn from the full multiset.
        assert oracle is not None
        unsliced = SelectQuery(
            projection=query.projection,
            where=query.where,
            distinct=query.distinct,
        )
        full = Counter(oracle.query(unsliced).rows)
        actual_rows = Counter(actual.rows)
        assert sum(actual_rows.values()) == len(expected.rows)
        assert all(full[row] >= count for row, count in actual_rows.items())
    else:
        assert Counter(actual.rows) == Counter(expected.rows)


@given(querygen.graphs, querygen.select_queries)
def test_select_agrees(graph, query):
    oracle, col = _engines(graph)
    expected = oracle.query(query)
    _assert_select_agrees(query, expected, col.query(query), oracle)


@given(querygen.graphs, querygen.conjunctive_queries)
def test_conjunctive_agrees(graph, query):
    """OPTIONAL/UNION-free shapes: the columnar engine's homogeneous hot
    path, where batch joins never take the mixed-column fallback."""
    oracle, col = _engines(graph)
    expected = oracle.query(query)
    _assert_select_agrees(query, expected, col.query(query), oracle)


@given(querygen.graphs, querygen.groups)
def test_ask_agrees(graph, where):
    oracle, col = _engines(graph)
    query = AskQuery(where=where)
    assert col.query(query).value == oracle.query(query).value


@given(
    querygen.graphs,
    querygen.groups,
    st.booleans(),
    st.one_of(st.none(), st.sampled_from(querygen.VARIABLES)),
)
def test_count_agrees(graph, where, distinct, variable):
    oracle, col = _engines(graph)
    query = SelectQuery(
        projection=(CountAggregate(variable, distinct, Variable("n")),),
        where=where,
    )
    assert col.query(query).rows == oracle.query(query).rows


@given(querygen.graphs, querygen.conjunctive_queries)
def test_agrees_with_batch_joins_forced(graph, query):
    """Drop the admission thresholds so tiny generated inputs exercise the
    batch join operators (hash/merge/radix) instead of the index loop."""
    oracle, col = _engines(graph)
    expected = oracle.query(query)
    saved = (
        compiler.HASH_JOIN_MIN_ROWS,
        compiler.HASH_JOIN_MAX_SCAN_FACTOR,
        columnar._planner.MERGE_JOIN_MIN_ROWS,
        columnar._planner.RADIX_JOIN_MIN_ROWS,
    )
    compiler.HASH_JOIN_MIN_ROWS = 1
    compiler.HASH_JOIN_MAX_SCAN_FACTOR = 10**9
    try:
        for merge_min, radix_min in ((1, 10**9), (10**9, 1), (10**9, 10**9)):
            columnar._planner.MERGE_JOIN_MIN_ROWS = merge_min
            columnar._planner.RADIX_JOIN_MIN_ROWS = radix_min
            _assert_select_agrees(query, expected, col.query(query), oracle)
    finally:
        (
            compiler.HASH_JOIN_MIN_ROWS,
            compiler.HASH_JOIN_MAX_SCAN_FACTOR,
            columnar._planner.MERGE_JOIN_MIN_ROWS,
            columnar._planner.RADIX_JOIN_MIN_ROWS,
        ) = saved


@given(querygen.graphs, querygen.select_queries)
def test_columnar_agrees_without_numpy(graph, query):
    """The pure-python fallback must be observationally identical."""
    oracle, col = _engines(graph)
    expected = oracle.query(query)
    saved = columnar._np
    columnar._np = None
    try:
        actual = col.query(query)
    finally:
        columnar._np = saved
    _assert_select_agrees(query, expected, actual, oracle)


@pytest.mark.parametrize("seed", [11, 23, 47])
def test_seeded_workload_sweep(seed):
    """Fixed-size reproducible sweep over a denser graph than hypothesis
    generates, forcing batch-join admission on realistic row counts."""
    graph, queries = querygen.random_workload(
        seed, queries=40, graph_size=120
    )
    oracle, col = _engines(graph)
    saved = compiler.HASH_JOIN_MIN_ROWS
    compiler.HASH_JOIN_MIN_ROWS = 4
    try:
        for query in queries:
            expected = oracle.query(query)
            _assert_select_agrees(query, expected, col.query(query), oracle)
    finally:
        compiler.HASH_JOIN_MIN_ROWS = saved


def test_mixed_boundness_falls_back_not_fails():
    """OPTIONAL produces rows with heterogeneous boundness; a following
    join must route through the row fallback and stay correct."""
    a, b, knows, likes = (
        IRI("http://e/a"), IRI("http://e/b"),
        IRI("http://e/knows"), IRI("http://e/likes"),
    )
    graph = Graph(
        [
            Triple(a, knows, b),
            Triple(b, knows, a),
            Triple(a, likes, b),
            Triple(b, likes, b),
        ]
    )
    text = """
        SELECT ?x ?y ?z WHERE {
          ?x <http://e/knows> ?y .
          OPTIONAL { ?y <http://e/likes> ?z }
          ?x <http://e/likes> ?z .
        } ORDER BY ?x ?y ?z
    """
    oracle, col = _engines(graph)
    assert col.query(text).rows == oracle.query(text).rows
