"""The shipped lookup indexes answer like the rebuilt ones, on any input.

A segment directory ships ``kb_index.bin``; ``KnowledgeBase.from_backend``
reads it through read-only views (:mod:`repro.kb.shipped`).  Over random
surface strings — real forms, perturbed forms and forms absent from the
KB — and random token streams and entities, the views must give exactly
what the indexes rebuilt from the same triples give: candidates in
order, spots, labels, type sets, and link sets that iterate alike.
"""

import json
import random
import shutil
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kb import (
    KnowledgeBase,
    SegmentedBackend,
    build_dbpedia_ontology,
    build_segments,
    load_curated_kb,
)
from repro.kb.shipped import ShippedSurfaceForms


@pytest.fixture(scope="module")
def pair(tmp_path_factory):
    """(KB reading the shipped index, KB rebuilt from the same triples)."""
    root = tmp_path_factory.mktemp("equivalence")
    build_segments(load_curated_kb().graph, root / "shipped", shards=4)
    shutil.copytree(root / "shipped", root / "rebuilt")
    manifest_path = root / "rebuilt" / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    del manifest["resources"]
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    backends = [
        SegmentedBackend(root / name).open() for name in ("shipped", "rebuilt")
    ]
    kbs = [
        KnowledgeBase.from_backend(build_dbpedia_ontology(), backend)
        for backend in backends
    ]
    assert isinstance(kbs[0].surface_index, ShippedSurfaceForms)
    assert not kbs[1].shipped_index
    yield kbs
    for backend in backends:
        backend.close()


_KB = load_curated_kb()
FORMS = sorted({
    surface
    for entity in _KB.entities()
    for surface in (_KB.surface_index.label(entity), entity.local_name)
    if surface
})
WORDS = sorted({word for form in FORMS for word in form.replace("_", " ").split()})


@st.composite
def perturbed_forms(draw):
    """A KB form with its case flipped, punctuation and spaces added,
    and perhaps a word dropped or appended: often still a form, often
    not."""
    words = draw(st.sampled_from(FORMS)).replace("_", " ").split()
    if len(words) > 1 and draw(st.booleans()):
        del words[draw(st.integers(0, len(words) - 1))]
    if draw(st.booleans()):
        words.append(draw(st.sampled_from(WORDS + ["x", "0", "the"])))
    separator = draw(st.sampled_from([" ", "  ", ", ", "-", "_", " . "]))
    text = separator.join(words)
    flips = draw(st.lists(st.booleans(), min_size=len(text), max_size=len(text)))
    return "".join(
        ch.swapcase() if flip else ch for ch, flip in zip(text, flips)
    )


surfaces = st.one_of(
    st.sampled_from(FORMS),
    perturbed_forms(),
    st.text(max_size=24),
    st.text(alphabet="abcdeé ,.-ßΣ", max_size=12),
)

tokens = st.lists(
    st.one_of(
        st.sampled_from(WORDS),
        st.sampled_from([",", "?", "'s", "the", "of", "by", ""]),
        st.text(max_size=6),
    ),
    max_size=16,
)


@given(surfaces)
def test_candidates_match(pair, surface):
    got, want = (kb.surface_index for kb in pair)
    assert got.candidates(surface) == want.candidates(surface)
    assert (surface in got) == (surface in want)
    # The first-word test is a hash test: it may pass a word that starts
    # no form, never fail one that does.
    if want.starts_form(surface):
        assert got.starts_form(surface)


@given(tokens)
def test_spots_match(pair, stream):
    got, want = (kb.surface_index for kb in pair)
    assert list(got.spot(stream)) == list(want.spot(stream))


@given(st.data())
def test_entities_match(pair, data):
    loaded, rebuilt = pair
    backend = loaded.backend
    term_id = data.draw(st.integers(0, len(backend.dictionary) - 1))
    entity = backend.decode(term_id)
    got_forms, want_forms = loaded.surface_index, rebuilt.surface_index
    assert got_forms.label(entity) == want_forms.label(entity)
    assert loaded.entity_types(entity) == rebuilt.entity_types(entity)
    got, want = loaded.page_links, rebuilt.page_links
    assert list(got.out_links(entity)) == list(want.out_links(entity))
    assert list(got.in_links(entity)) == list(want.in_links(entity))
    assert list(got.neighbours(entity)) == list(want.neighbours(entity))
    other = backend.decode(data.draw(st.integers(0, len(backend.dictionary) - 1)))
    assert got.connected(entity, other) == want.connected(entity, other)


def test_concurrent_first_touch(pair):
    """Eight threads touch a fresh shipped KB at once, with a short
    switch interval: the file maps once, and every lookup — through
    memos other threads are filling — gives the rebuilt KB's answer."""
    loaded, rebuilt = pair
    forms = list(rebuilt.surface_index._forms)
    pages = sorted(rebuilt.page_links.pages(), key=str)
    want_forms = {form: rebuilt.surface_index.candidates(form) for form in forms}
    want_links = {page: list(rebuilt.page_links.neighbours(page)) for page in pages}
    errors = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with SegmentedBackend(loaded.backend.path) as backend:
            kb = KnowledgeBase.from_backend(build_dbpedia_ontology(), backend)

            def work(seed):
                rng = random.Random(seed)
                try:
                    for form in rng.sample(forms, len(forms)):
                        assert kb.surface_index.candidates(form) == want_forms[form]
                    for page in rng.sample(pages, len(pages)):
                        assert list(kb.page_links.neighbours(page)) == want_links[page]
                except Exception as error:  # reported below
                    errors.append(error)

            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
