"""Mined stores equal a reference build: per-window spotting, no memos.

``SurfaceFormIndex.spot`` normalises each token once and prunes start
positions, and ``PatternExtractor.extract`` memoises sentences and entity
pairs within one call.  None of that may change a mined pattern.

A segment directory ships its KB indexes and its mined store; what a
server loads from it must equal what it would rebuild from the triples.
"""

import json
import shutil

import pytest

from repro.api import QuestionAnsweringSystem
from repro.core import system as system_module
from repro.extensions.datapatterns import build_data_pattern_store
from repro.kb import (
    KnowledgeBase,
    SegmentedBackend,
    build_dbpedia_ontology,
    build_segments,
    load_curated_kb,
)
from repro.kb.generator import load_synthetic_kb
from repro.kb.segment import PATTERNS_RESOURCE
from repro.nlp.tokenizer import tokenize
from repro.patty import PatternExtractor
from repro.patty.corpus import generate_corpus
from repro.patty.export import pattern_store_from_state
from repro.patty.store import PatternStore, build_pattern_store
from repro.qald import load_dev_questions, load_questions
from tests.kb.test_labels import reference_spot


def with_reference_spot(monkeypatch, kb):
    """``kb`` with its index spotting through the per-window reference loop."""
    index = kb.surface_index
    monkeypatch.setattr(index, "spot", lambda tokens: reference_spot(index, tokens))
    return kb


def reference_pattern_store(kb):
    """``build_pattern_store`` with every sentence and pair done afresh."""
    extractor = PatternExtractor(kb)
    occurrences = []
    for sentence in generate_corpus(kb):
        occurrences.extend(extractor._extract_one(sentence.text, {}))
    store = PatternStore()
    for aggregate in extractor.aggregate(occurrences).values():
        store.add_pattern(aggregate)
    return store


def assert_same_store(got, want):
    assert [
        (p.text, p.relation, p.frequency, p.support) for p in got.patterns()
    ] == [
        (p.text, p.relation, p.frequency, p.support) for p in want.patterns()
    ]
    assert got.words() == want.words()
    for word in want.words():
        assert got.properties_for(word) == want.properties_for(word), word


@pytest.mark.parametrize("load", [load_curated_kb, lambda: load_synthetic_kb(1)],
                         ids=["curated", "synthetic-1"])
def test_pattern_store_matches_reference(load, monkeypatch):
    got = build_pattern_store(load())
    want = reference_pattern_store(with_reference_spot(monkeypatch, load()))
    assert len(want.patterns()) > 0
    assert_same_store(got, want)


def test_data_pattern_store_matches_reference(monkeypatch):
    got = build_data_pattern_store(load_curated_kb())
    want = build_data_pattern_store(with_reference_spot(monkeypatch, load_curated_kb()))
    assert len(want.patterns()) > 0
    assert_same_store(got, want)


# ---------------------------------------------------------------------------
# Shipped resources: a segment directory's loaded indexes and store equal
# the ones rebuilt from its triples
# ---------------------------------------------------------------------------

KBS = {"curated": load_curated_kb, "synthetic-1": lambda: load_synthetic_kb(1)}
LAYOUTS = {
    "1-shard": {"shards": 1},
    "4-shards": {"shards": 4},
    "8-shards": {"shards": 8},
    "no-object-shards": {"shards": 4, "object_shards": 0},
}


def without_resources(source, target):
    """A copy of a segment directory whose manifest lists no resources:
    how a directory written before resources shipped looks."""
    shutil.copytree(source, target)
    manifest = json.loads((target / "manifest.json").read_text(encoding="utf-8"))
    del manifest["resources"]
    (target / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


@pytest.fixture(
    scope="module",
    params=[(kb, layout) for kb in KBS for layout in LAYOUTS],
    ids=lambda param: "-".join(param),
)
def loaded_and_rebuilt(request, tmp_path_factory):
    """(KB over a shipped directory, KB over the same without resources)."""
    kb_name, layout = request.param
    root = tmp_path_factory.mktemp(f"{kb_name}-{layout}")
    build_segments(KBS[kb_name]().graph, root / "shipped", **LAYOUTS[layout])
    without_resources(root / "shipped", root / "parent")
    backends = [
        SegmentedBackend(root / name).open() for name in ("shipped", "parent")
    ]
    kbs = [
        KnowledgeBase.from_backend(build_dbpedia_ontology(), backend)
        for backend in backends
    ]
    yield kbs
    for backend in backends:
        backend.close()


class TestShippedEqualsRebuilt:
    def test_index_is_loaded_only_where_shipped(self, loaded_and_rebuilt):
        loaded, rebuilt = loaded_and_rebuilt
        assert loaded.shipped_index and not rebuilt.shipped_index
        # Decoded through the dictionary, as a rebuild's scans are: the
        # indexes share the backend's term objects.
        backend = loaded.backend
        for entity in loaded.entities()[:50]:
            assert backend.decode(backend.lookup(entity)) is entity

    def test_surface_forms(self, loaded_and_rebuilt):
        loaded, rebuilt = loaded_and_rebuilt
        got, want = loaded.surface_index, rebuilt.surface_index
        # Form keys, candidate lists and primary labels, orders included.
        assert (
            loaded.index_state()["surface_forms"]
            == rebuilt.index_state()["surface_forms"]
        )
        assert len(got) == len(want) > 0
        assert got.max_words == want.max_words
        for entity in rebuilt.entities():
            label = want.label(entity)
            assert got.label(entity) == label
            if label is None:
                continue
            tokens = tokenize(label)
            assert got.starts_form(label) == want.starts_form(label)
            assert list(got.spot(tokens)) == list(want.spot(tokens)), label

    def test_types_and_page_links(self, loaded_and_rebuilt):
        loaded, rebuilt = loaded_and_rebuilt
        assert loaded.entities() == rebuilt.entities()
        for entity in rebuilt.entities():
            assert loaded.entity_types(entity) == rebuilt.entity_types(entity)
        assert loaded.index_state() == rebuilt.index_state()
        got, want = loaded.page_links, rebuilt.page_links
        assert len(got) == len(want)
        assert got.pages() == want.pages()
        for page in want.pages():
            assert got.out_links(page) == want.out_links(page)
            assert got.in_links(page) == want.in_links(page)

    def test_pattern_store(self, loaded_and_rebuilt):
        loaded, rebuilt = loaded_and_rebuilt
        shipped = loaded.backend.shipped_resource(
            PATTERNS_RESOURCE, pattern_store_from_state
        )
        assert rebuilt.backend.shipped_resource(
            PATTERNS_RESOURCE, pattern_store_from_state
        ) is None
        assert_same_store(shipped, build_pattern_store(rebuilt))

    def test_answers_through_the_full_system(self, loaded_and_rebuilt, monkeypatch):
        loaded, rebuilt = loaded_and_rebuilt
        want = QuestionAnsweringSystem.over(rebuilt)

        def no_mining(kb):
            raise AssertionError("the shipped store must be loaded, not mined")

        monkeypatch.setattr(system_module, "build_pattern_store", no_mining)
        got = QuestionAnsweringSystem.over(loaded)
        questions = [q.text for q in load_questions() + load_dev_questions()]
        assert len(questions) == 120
        for text in questions:
            a, b = got.answer(text), want.answer(text)
            assert [t.n3() for t in a.answers] == [t.n3() for t in b.answers], text
            assert (a.boolean, a.failure) == (b.boolean, b.failure), text
