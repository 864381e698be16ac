"""KBBackend protocol: in-memory backend, graph views, read-only guard."""

import pytest

from repro.kb import (
    InMemoryBackend,
    KnowledgeBase,
    ReadOnlyGraphError,
    build_dbpedia_ontology,
)
from repro.kb.backend import BackendGraph
from repro.rdf import Graph, IRI, Literal, Triple
from repro.rdf.namespaces import DBO, DBR, RDF, RDFS


def _sample_graph() -> Graph:
    graph = Graph()
    graph.add(Triple(DBR["Dune"], RDF.type, DBO["Book"]))
    graph.add(Triple(DBR["Dune"], RDFS.label, Literal("Dune", language="en")))
    graph.add(Triple(DBR["Dune"], DBO["author"], DBR["Frank_Herbert"]))
    graph.add(Triple(DBR["Frank_Herbert"], RDF.type, DBO["Writer"]))
    graph.add(
        Triple(
            DBR["Frank_Herbert"],
            RDFS.label,
            Literal("Frank Herbert", language="en"),
        )
    )
    return graph


class TestInMemoryBackend:
    def test_graph_view_is_the_graph_itself(self):
        graph = _sample_graph()
        backend = InMemoryBackend(graph)
        assert backend.graph_view() is graph

    def test_scan_matches_graph_match_ids(self):
        graph = _sample_graph()
        backend = InMemoryBackend(graph)
        author = graph.lookup_id(DBO["author"])
        assert sorted(backend.scan(None, author, None)) == sorted(
            graph.match_ids(None, author, None)
        )
        assert sorted(backend.scan(None, None, None)) == sorted(
            graph.match_ids(None, None, None)
        )

    def test_count_lookup_decode_len(self):
        graph = _sample_graph()
        backend = InMemoryBackend(graph)
        assert len(backend) == len(graph)
        assert backend.count() == len(graph)
        dune = backend.lookup(DBR["Dune"])
        assert dune >= 0
        assert backend.decode(dune) == DBR["Dune"]
        assert backend.lookup(DBR["Nonexistent"]) == -1

    def test_fingerprint_tracks_generation(self):
        graph = _sample_graph()
        backend = InMemoryBackend(graph)
        before = backend.fingerprint()
        assert before["kind"] == "memory"
        graph.add(Triple(DBR["Arrakis"], RDF.type, DBO["Place"]))
        after = backend.fingerprint()
        assert after != before
        assert after["triples"] == before["triples"] + 1

    def test_stats_shape(self):
        backend = InMemoryBackend(_sample_graph())
        stats = backend.stats()
        assert stats["kind"] == "memory"
        assert stats["triples"] == 5
        assert stats["terms"] > 0

    def test_context_manager(self):
        with InMemoryBackend(_sample_graph()) as backend:
            assert len(backend) == 5


class TestBackendGraph:
    """The generic Graph-compatible adapter, exercised over the in-memory
    backend (the segmented backend reuses the identical adapter)."""

    def _pair(self):
        graph = _sample_graph()
        return graph, BackendGraph(InMemoryBackend(graph))

    def test_term_level_reads_agree(self):
        graph, view = self._pair()
        assert len(view) == len(graph)
        assert sorted(map(str, view)) == sorted(map(str, graph))
        triple = Triple(DBR["Dune"], DBO["author"], DBR["Frank_Herbert"])
        assert triple in view
        assert Triple(DBR["Dune"], DBO["author"], DBR["Dune"]) not in view
        assert view.count(None, RDF.type, None) == 2
        assert view.value(DBR["Dune"], DBO["author"]) == DBR["Frank_Herbert"]
        assert list(view.objects_of(DBR["Dune"], DBO["author"])) == [
            DBR["Frank_Herbert"]
        ]
        assert list(view.subjects_of(RDF.type, DBO["Book"])) == [DBR["Dune"]]

    def test_distinct_views_agree(self):
        graph, view = self._pair()
        assert set(view.subjects()) == set(graph.subjects())
        assert set(view.predicates()) == set(graph.predicates())
        assert set(view.objects()) == set(graph.objects())

    def test_id_space_absent_constant_matches_nothing(self):
        __, view = self._pair()
        assert list(view.match_ids(-1, None, None)) == []
        assert view.count_ids(None, -1, None) == 0

    def test_mutation_raises_typed_error(self):
        __, view = self._pair()
        triple = Triple(DBR["X"], RDF.type, DBO["Book"])
        with pytest.raises(ReadOnlyGraphError):
            view.add(triple)
        with pytest.raises(ReadOnlyGraphError):
            view.add_all([triple])
        with pytest.raises(ReadOnlyGraphError):
            view.remove(triple)


class TestKnowledgeBaseBackendRouting:
    def test_default_backend_is_in_memory(self):
        kb = KnowledgeBase(build_dbpedia_ontology())
        assert isinstance(kb.backend, InMemoryBackend)
        assert kb.graph is kb.backend.graph_view()

    def test_from_backend_rebuilds_lookup_indexes(self):
        kb = KnowledgeBase.from_backend(
            build_dbpedia_ontology(), InMemoryBackend(_sample_graph())
        )
        assert kb.has_entity("Dune")
        assert kb.entity_types(DBR["Dune"]) == {"Book"}
        assert kb.label_of(DBR["Frank_Herbert"]) == "Frank Herbert"
        assert kb.select(
            "SELECT ?x WHERE { ?x a dbo:Writer }"
        ).rows == ((DBR["Frank_Herbert"],),)
