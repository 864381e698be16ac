"""Deterministic ORDER BY ties across both engines.

Rows whose ORDER BY keys compare equal fall back to dictionary-id order
over the solution's variables taken in name order, applied as the final
(never DESC-inverted) sort key — docs/performance.md, "Deterministic
ordering".  The contract is what lets the differential suites and the
bench guard compare ordered results byte-for-byte instead of falling back
to order-insensitive multisets.
"""

import pytest

from repro.rdf import Graph, IRI, Triple
from repro.sparql import columnar
from repro.sparql.engine import SparqlEngine

RANK = IRI("http://e/rank")
NAME = IRI("http://e/name")


@pytest.fixture
def tied_graph():
    """Ten subjects sharing just two rank values: every sort is ties."""
    graph = Graph()
    for i in range(10):
        subject = IRI(f"http://e/s{i}")
        graph.add(Triple(subject, RANK, IRI(f"http://e/r{i % 2}")))
        graph.add(Triple(subject, NAME, IRI(f"http://e/n{i}")))
    return graph


def _engines(graph):
    return (
        SparqlEngine(graph, cache_size=0, idspace=False),
        SparqlEngine(graph, cache_size=0),
    )


TIED = """
    SELECT ?s ?n WHERE {
      ?s <http://e/rank> ?r .
      ?s <http://e/name> ?n .
    } ORDER BY ?r
"""


def test_duplicate_sort_keys_order_identically(tied_graph):
    oracle, col = _engines(tied_graph)
    expected = oracle.query(TIED)
    assert col.query(TIED).rows == expected.rows
    # The two rank groups stay contiguous (primary key respected)...
    ranks = [int(r.value.rsplit("s", 1)[1]) % 2 for r, __ in expected.rows]
    assert ranks == sorted(ranks)
    # ...and within each group the id tie-break yields insertion order
    # (ids are assigned in first-interning order).
    firsts = [int(s.value.rsplit("s", 1)[1]) for s, __ in expected.rows[:5]]
    assert firsts == sorted(firsts)


def test_desc_keeps_tiebreak_ascending(tied_graph):
    """DESC inverts the ORDER key but never the tie-break."""
    asc = SparqlEngine(tied_graph, cache_size=0).query(TIED)
    desc = SparqlEngine(tied_graph, cache_size=0).query(
        TIED.replace("ORDER BY ?r", "ORDER BY DESC(?r)")
    )
    groups_asc = [asc.rows[:5], asc.rows[5:]]
    groups_desc = [desc.rows[:5], desc.rows[5:]]
    assert groups_desc == groups_asc[::-1]


def test_limit_under_ties_picks_same_rows(tied_graph):
    query = TIED.replace("ORDER BY ?r", "ORDER BY ?r LIMIT 3 OFFSET 2")
    oracle, col = _engines(tied_graph)
    expected = oracle.query(query)
    assert len(expected.rows) == 3
    assert col.query(query).rows == expected.rows


def test_ties_identical_without_numpy(tied_graph):
    expected = SparqlEngine(tied_graph, cache_size=0).query(TIED)
    saved = columnar._np
    columnar._np = None
    try:
        actual = SparqlEngine(tied_graph, cache_size=0).query(TIED)
    finally:
        columnar._np = saved
    assert actual.rows == expected.rows


def test_tiebreak_ignores_unprojected_equal_keys():
    """Hidden (unprojected) variables still participate in the tie-break,
    so engines whose joins enumerate in different orders agree."""
    graph = Graph()
    s = IRI("http://e/s")
    for i in range(6):
        graph.add(Triple(s, RANK, IRI(f"http://e/r{i}")))
        graph.add(Triple(s, NAME, IRI(f"http://e/n{i}")))
    query = """
        SELECT ?s WHERE {
          ?s <http://e/rank> ?r .
          ?s <http://e/name> ?n .
        } ORDER BY ?s
    """
    oracle, col = _engines(graph)
    expected = oracle.query(query)
    assert len(expected.rows) == 36  # 6 ranks x 6 names, all ?s ties
    assert col.query(query).rows == expected.rows
