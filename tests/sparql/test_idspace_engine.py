"""Regression tests for the compiled id-space engine's caching layers.

The original motivation for the plan cache: the execute stage submits
``candidate.to_ast()`` directly, so the *parse* cache never saw the QA hot
path (its ``sparql.parse_cache.hit_rate`` read 0.0).  Plans are
keyed on the AST's structural hash, so AST-submitted queries must now hit
both the plan cache and the result cache.
"""

import pytest

from repro.rdf import DBO, DBR, Graph, RDF, Triple
from repro.rdf.terms import Variable
from repro.sparql.ast import BGP, Group, SelectQuery
from repro.sparql.engine import SparqlEngine


@pytest.fixture()
def graph():
    g = Graph()
    for i in range(60):
        book = DBR[f"Book{i}"]
        g.add(Triple(book, RDF.type, DBO.Book))
        g.add(Triple(book, DBO.author, DBR[f"Writer{i % 6}"]))
        g.add(Triple(book, DBO.publisher, DBR[f"Pub{i % 4}"]))
    return g


def _candidate_ast(*triples) -> SelectQuery:
    return SelectQuery(
        projection=(Variable("x"),),
        where=Group((BGP(tuple(triples)),)),
        distinct=True,
    )


class TestPlanCache:
    def test_ast_submitted_queries_hit_plan_and_result_caches(self, graph):
        engine = SparqlEngine(graph)
        x = Variable("x")
        # Two structurally equal but distinct AST objects, as produced by
        # repeated candidate.to_ast() calls before memoization.
        first = _candidate_ast(Triple(x, RDF.type, DBO.Book))
        second = _candidate_ast(Triple(x, RDF.type, DBO.Book))
        assert first is not second

        result = engine.query(first)
        repeat = engine.query(second)
        assert repeat is result  # result cache hit on structural equality

        plan_stats = engine.cache_stats()["plan_cache"]
        assert plan_stats["misses"] == 1
        assert plan_stats["hits"] == 1
        assert plan_stats["hit_rate"] > 0.0

    def test_plan_survives_result_cache_invalidation(self, graph):
        engine = SparqlEngine(graph)
        ast = _candidate_ast(Triple(Variable("x"), RDF.type, DBO.Book))
        before = engine.query(ast)
        graph.add(Triple(DBR.Extra, RDF.type, DBO.Book))
        after = engine.query(ast)
        assert len(after) == len(before) + 1
        stats = engine.cache_stats()
        # The mutation invalidated the result cache but not the plan.
        assert stats["result_cache"]["misses"] == 2
        assert stats["plan_cache"]["misses"] == 1
        assert stats["plan_cache"]["hits"] == 1

    def test_textual_queries_share_the_plan_cache(self, graph):
        engine = SparqlEngine(graph)
        engine.query("SELECT DISTINCT ?x WHERE { ?x a dbo:Book }")
        ast = _candidate_ast(Triple(Variable("x"), RDF.type, DBO.Book))
        engine.query(ast)
        # The parsed text and the hand-built AST are structurally equal, so
        # the AST submission reuses the text query's plan.
        assert engine.cache_stats()["plan_cache"]["hits"] == 1

    def test_plan_cache_active_with_result_cache_disabled(self, graph):
        engine = SparqlEngine(graph, cache_size=0)
        ast = _candidate_ast(Triple(Variable("x"), RDF.type, DBO.Book))
        first = engine.query(ast)
        second = engine.query(ast)
        assert first is not second  # no result caching...
        assert first.rows == second.rows
        assert engine.cache_stats()["plan_cache"]["hits"] == 1  # ...but plans reuse

    def test_clear_caches_drops_plans(self, graph):
        engine = SparqlEngine(graph)
        ast = _candidate_ast(Triple(Variable("x"), RDF.type, DBO.Book))
        engine.query(ast)
        engine.clear_caches()
        engine.query(ast)
        assert engine.cache_stats()["plan_cache"]["misses"] == 2


class TestCandidateQueries:
    def test_memo_invalidated_on_mutation(self, graph):
        engine = SparqlEngine(graph)
        x, a = Variable("x"), Variable("a")
        ast = _candidate_ast(
            Triple(x, RDF.type, DBO.Book), Triple(x, DBO.author, a)
        )
        engine.query(ast)
        graph.add(Triple(DBR.Another, RDF.type, DBO.Book))
        graph.add(Triple(DBR.Another, DBO.author, DBR.Writer0))
        result = engine.query(ast)
        # Post-mutation result reflects the new triples (nothing stale).
        assert len(result) == 61

    def test_memoized_to_ast_is_stable(self):
        from repro.core.querygen import CandidateQuery

        candidate = CandidateQuery(
            triples=(Triple(Variable("x"), RDF.type, DBO.Book),),
            score=1.0,
            sources=("test",),
        )
        assert candidate.to_ast() is candidate.to_ast()


class TestMetricsExposure:
    def test_metrics_document_carries_plan_cache_gauges(self, graph):
        from repro.obs.metrics import MetricsRegistry

        engine = SparqlEngine(graph)
        ast = _candidate_ast(Triple(Variable("x"), RDF.type, DBO.Book))
        engine.query(ast)
        engine.query(ast)
        registry = MetricsRegistry()
        registry.absorb_cache_stats(engine.cache_stats())
        document = registry.snapshot()
        gauges = document["gauges"]
        assert gauges["sparql.plan_cache.hits"] == 1
        assert gauges["sparql.plan_cache.misses"] == 1
        assert gauges["sparql.plan_cache.hit_rate"] > 0.0
