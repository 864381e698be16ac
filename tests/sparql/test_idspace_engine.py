"""Regression tests for the compiled id-space engine's one cache.

The execute stage submits ``candidate.to_ast()`` directly, so the result
cache is keyed on the AST's structural hash: AST-submitted queries hit it
like textual ones.  Nothing else is cached — a result-cache miss compiles
its plan, a hit compiles nothing.
"""

import pytest

from repro.rdf import DBO, DBR, Graph, RDF, Triple
from repro.rdf.terms import Variable
from repro.sparql import engine as engine_module
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


class TestResultCacheKeys:
    def test_equal_asts_hit_the_result_cache(self, graph):
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
        stats = engine.cache_stats()["result_cache"]
        assert (stats["hits"], stats["misses"]) == (1, 1)

    def test_text_and_ast_share_the_result_cache(self, graph):
        engine = SparqlEngine(graph)
        result = engine.query("SELECT DISTINCT ?x WHERE { ?x a dbo:Book }")
        ast = _candidate_ast(Triple(Variable("x"), RDF.type, DBO.Book))
        # The parsed text and the hand-built AST are structurally equal.
        assert engine.query(ast) is result
        assert engine.cache_stats()["result_cache"]["hits"] == 1

    def test_clear_caches_drops_results(self, graph):
        engine = SparqlEngine(graph)
        ast = _candidate_ast(Triple(Variable("x"), RDF.type, DBO.Book))
        first = engine.query(ast)
        engine.clear_caches()
        second = engine.query(ast)
        assert second is not first
        assert second.rows == first.rows
        assert engine.cache_stats()["result_cache"]["misses"] == 2

    @pytest.mark.parametrize("cache_size", (0, 512))
    def test_only_a_result_cache_miss_compiles(
        self, graph, monkeypatch, cache_size
    ):
        compiled = []
        compile_query = engine_module.compile_query

        def counting(query, graph):
            compiled.append(query)
            return compile_query(query, graph)

        monkeypatch.setattr(engine_module, "compile_query", counting)
        engine = SparqlEngine(graph, cache_size=cache_size)
        ast = _candidate_ast(Triple(Variable("x"), RDF.type, DBO.Book))
        for __ in range(3):
            engine.query(ast)
        assert len(compiled) == (3 if cache_size == 0 else 1)


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
    def test_metrics_carry_result_cache_gauges(self, graph):
        from repro.obs.metrics import MetricsRegistry

        engine = SparqlEngine(graph)
        ast = _candidate_ast(Triple(Variable("x"), RDF.type, DBO.Book))
        engine.query(ast)
        engine.query(ast)
        registry = MetricsRegistry()
        registry.absorb_cache_stats(engine.cache_stats())
        gauges = registry.snapshot()["gauges"]
        assert gauges["sparql.result_cache.hits"] == 1
        assert gauges["sparql.result_cache.misses"] == 1
        assert gauges["sparql.result_cache.hit_rate"] > 0.0
        assert sorted({name.rsplit(".", 1)[0] for name in gauges}) == [
            "sparql.result_cache"
        ]
