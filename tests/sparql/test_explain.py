"""Tests for the EXPLAIN facility."""

import pytest

from repro.kb import load_curated_kb
from repro.sparql.explain import explain


@pytest.fixture(scope="module")
def kb():
    return load_curated_kb()


class TestExplain:
    def test_simple_scan(self, kb):
        plan = explain(kb.graph, "SELECT ?x WHERE { ?x a dbont:Book }")
        assert plan.startswith("SELECT plan")
        assert "join[1] scan ?x rdf:type dbo:Book" in plan

    def test_join_order_most_selective_first(self, kb):
        plan = explain(kb.graph, """
            SELECT ?book WHERE {
              ?book a dbont:Book .
              ?writer dbont:birthPlace res:Istanbul .
              ?book dbont:author ?writer .
            }
        """)
        lines = [l for l in plan.splitlines() if "join[" in l]
        # The single-match birthPlace lookup must come first.
        assert "birthPlace" in lines[0]
        assert "rdf:type" in lines[-1]

    def test_estimates_reported(self, kb):
        plan = explain(kb.graph, "SELECT ?x WHERE { ?x a dbont:Country }")
        assert "(est. " in plan

    def test_ground_pattern_is_lookup(self, kb):
        plan = explain(
            kb.graph, "ASK { res:Istanbul dbont:country res:Turkey }"
        )
        assert "lookup" in plan
        # The engine builds the whole batch before it tests for a
        # solution, so the header claims no early stop.
        assert plan.splitlines()[0] == "ASK plan"

    def test_filter_listed_after_joins(self, kb):
        plan = explain(kb.graph, """
            SELECT ?c WHERE {
              ?c dbont:populationTotal ?p FILTER (?p > 1000000)
            }
        """)
        join_index = plan.index("join[1]")
        filter_index = plan.index("filter (")
        assert join_index < filter_index

    def test_optional_as_left_join(self, kb):
        plan = explain(kb.graph, """
            SELECT ?w WHERE {
              ?w a dbont:Writer
              OPTIONAL { ?w dbont:deathDate ?d }
            }
        """)
        assert "left-join" in plan

    def test_union_branches(self, kb):
        plan = explain(kb.graph, """
            SELECT ?x WHERE {
              { ?x dbont:author ?a } UNION { ?x dbont:writer ?a }
            }
        """)
        assert plan.count("union") == 1
        assert plan.count("group") >= 3

    def test_modifiers_reported(self, kb):
        plan = explain(kb.graph, """
            SELECT DISTINCT ?x WHERE { ?x a dbont:City . ?x dbont:populationTotal ?p }
            ORDER BY DESC(?p) LIMIT 3 OFFSET 1
        """)
        assert "then: DISTINCT" in plan
        assert "then: ORDER BY" in plan
        assert "then: slice offset=1 limit=3" in plan

    def test_explain_does_not_execute(self, kb):
        # A query with a huge cross product must still explain instantly;
        # smoke-check by explaining a triple cartesian product.
        plan = explain(kb.graph, "SELECT ?a ?b WHERE { ?a ?p1 ?o1 . ?b ?p2 ?o2 }")
        assert "join[2]" in plan
