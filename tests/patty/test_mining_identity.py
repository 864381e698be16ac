"""Mined stores equal a reference build: per-window spotting, no memos.

``SurfaceFormIndex.spot`` normalises each token once and prunes start
positions, and ``PatternExtractor.extract`` memoises sentences and entity
pairs within one call.  None of that may change a mined pattern.
"""

import pytest

from repro.extensions.datapatterns import build_data_pattern_store
from repro.kb import load_curated_kb
from repro.kb.generator import load_synthetic_kb
from repro.patty import PatternExtractor
from repro.patty.corpus import generate_corpus
from repro.patty.store import PatternStore, build_pattern_store
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
