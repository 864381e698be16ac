"""Result/parse cache behaviour of SparqlEngine, including the
generation-counter invalidation contract (no stale bindings, ever)."""

import pytest

from repro.rdf import DBO, DBR, RDF, Graph, Triple
from repro.sparql.engine import SparqlEngine

BOOKS = "SELECT ?b WHERE { ?b a dbo:Book }"


@pytest.fixture
def graph():
    return Graph([
        Triple(DBR.Snow, RDF.type, DBO.Book),
        Triple(DBR.Snow, DBO.author, DBR.Orhan_Pamuk),
    ])


@pytest.fixture
def engine(graph):
    return SparqlEngine(graph)


class TestResultCache:
    def test_repeat_query_hits_cache(self, engine):
        first = engine.select(BOOKS)
        second = engine.select(BOOKS)
        assert second is first  # the identical immutable result object
        stats = engine.cache_stats()["result_cache"]
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_parse_cache_hits_on_text_queries(self, engine):
        engine.select(BOOKS)
        engine.select(BOOKS)
        stats = engine.cache_stats()["parse_cache"]
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_ask_results_cached_too(self, engine):
        assert engine.ask("ASK { res:Snow dbo:author res:Orhan_Pamuk }")
        assert engine.ask("ASK { res:Snow dbo:author res:Orhan_Pamuk }")
        assert engine.cache_stats()["result_cache"]["hits"] == 1

    def test_cache_disabled_engine_recomputes(self, graph):
        engine = SparqlEngine(graph, cache_size=0)
        first = engine.select(BOOKS)
        second = engine.select(BOOKS)
        assert first is not second
        assert first.rows == second.rows


class TestGenerationInvalidation:
    def test_mutation_invalidates_cached_select(self, engine, graph):
        assert len(engine.select(BOOKS)) == 1
        graph.add(Triple(DBR.My_Name_Is_Red, RDF.type, DBO.Book))
        fresh = engine.select(BOOKS)
        assert len(fresh) == 2  # no stale bindings
        locals_ = {row[0].local_name for row in fresh.rows}
        assert locals_ == {"Snow", "My_Name_Is_Red"}

    def test_removal_invalidates_cached_select(self, engine, graph):
        assert len(engine.select(BOOKS)) == 1
        graph.remove(Triple(DBR.Snow, RDF.type, DBO.Book))
        assert len(engine.select(BOOKS)) == 0

    def test_invalidation_counted(self, engine, graph):
        engine.select(BOOKS)
        graph.add(Triple(DBR.My_Name_Is_Red, RDF.type, DBO.Book))
        engine.select(BOOKS)
        counters = engine.stats.snapshot()["counters"]
        assert counters["sparql.result_cache.invalidations"] == 1
        # miss, then invalidation, then miss again: never a stale hit
        assert counters["sparql.result_cache.misses"] == 2
        assert counters.get("sparql.result_cache.hits", 0) == 0

    def test_noop_mutation_keeps_cache_valid(self, engine, graph):
        """Adding an already-present triple must not thrash the cache."""
        engine.select(BOOKS)
        assert graph.add(Triple(DBR.Snow, RDF.type, DBO.Book)) is False
        engine.select(BOOKS)
        assert engine.cache_stats()["result_cache"]["hits"] == 1

    def test_mutation_then_revert_still_fresh(self, engine, graph):
        """Generation is monotonic: add+remove returns to the same triple
        set but never replays a stale cache entry."""
        assert len(engine.select(BOOKS)) == 1
        extra = Triple(DBR.My_Name_Is_Red, RDF.type, DBO.Book)
        graph.add(extra)
        assert len(engine.select(BOOKS)) == 2
        graph.remove(extra)
        assert len(engine.select(BOOKS)) == 1


class TestGenerationCounter:
    def test_generation_bumps_on_add_and_remove(self):
        graph = Graph()
        start = graph.generation
        triple = Triple(DBR.Snow, RDF.type, DBO.Book)
        graph.add(triple)
        assert graph.generation == start + 1
        graph.add(triple)  # duplicate: no change
        assert graph.generation == start + 1
        graph.remove(triple)
        assert graph.generation == start + 2
        graph.remove(triple)  # absent: no change
        assert graph.generation == start + 2


class TestColumnarPlanCache:
    """The plan cache hands back ColumnarQuery plans and re-resolution —
    not silent reuse of stale constants — covers KB generation bumps."""

    def test_cached_plan_is_columnar(self, engine):
        from repro.sparql.columnar import ColumnarQuery

        engine.select(BOOKS)
        ast = engine._parse(BOOKS)
        plan = engine._plan_cache.get(ast)
        assert isinstance(plan, ColumnarQuery)

    def test_generation_bump_reresolves_cached_columnar_plan(self, graph):
        """A plan compiled while a constant was absent must pick the
        constant up once a KB generation bump interns it."""
        engine = SparqlEngine(graph)
        query = "SELECT ?b WHERE { ?b a dbo:Play }"  # dbo:Play not interned
        assert engine.select(query).rows == ()
        ast = engine._parse(query)
        plan_before = engine._plan_cache.get(ast)
        generation_before = plan_before._resolved_generation

        graph.add(Triple(DBR.Hamlet, RDF.type, DBO.Play))
        fresh = engine.select(query)
        assert [row[0].local_name for row in fresh.rows] == ["Hamlet"]
        plan_after = engine._plan_cache.get(ast)
        assert plan_after is plan_before  # same plan object, re-resolved
        assert plan_after._resolved_generation > generation_before

    def test_columnar_results_track_generation(self, graph):
        engine = SparqlEngine(graph)
        assert len(engine.select(BOOKS)) == 1
        graph.add(Triple(DBR.My_Name_Is_Red, RDF.type, DBO.Book))
        assert len(engine.select(BOOKS)) == 2
        graph.remove(Triple(DBR.Snow, RDF.type, DBO.Book))
        assert len(engine.select(BOOKS)) == 1
