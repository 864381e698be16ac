"""The KB's lookup indexes read from a segment directory's shipped file.

A question touches a handful of entities, so a server over segments
decodes none up front.  :func:`load_shipped` wraps the directory's
:class:`~repro.kb.segment.SegmentIndex` (``kb_index.bin``, mapped and
checksummed on first touch) in three read-only views with the query
surface of the in-heap indexes:

* :class:`ShippedSurfaceForms` — ``candidates``, ``spot``,
  ``starts_form``, ``label``, ``max_words``, ``len``;
* :class:`ShippedEntityTypes` — the entity → class-names mapping behind
  ``KnowledgeBase.entity_types`` / ``is_instance_of`` / ``entity`` /
  ``entities``;
* :class:`ShippedPageLinks` — ``out_links``, ``in_links``,
  ``neighbours``, ``degree``, ``connected``, ``pages``.

An entity is decoded through the backend's dictionary only when a lookup
touches it, and each decoded result (a candidate list, a label, a type
set, a link set) is remembered, so a repeated lookup is one dict get, as
in the heap.  Results equal the rebuild's: candidates come in insertion
order, and each link set is built by adding its pages in ascending id
order — the order a rebuild's POS scan of the page-link triples adds
them in, so the sets iterate alike.  Spotting also asks for many windows
that name nothing and tests every token's first word; those answers are
remembered too, up to :data:`MISS_MEMO_SIZE` of each kind (a full memo
starts over), since their keys are question text, not KB entries.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Iterable, Iterator

from repro.kb.backend import KBBackend
from repro.kb.labels import SurfaceForms
from repro.kb.pagelinks import PageLinks
from repro.kb.segment import SegmentIndex
from repro.rdf.terms import IRI, Term

#: How many surface-form misses, and first-word answers, a view keeps.
MISS_MEMO_SIZE = 1 << 14


class _Terms:
    """Ids to terms through the backend's dictionary, and back; every
    decoded term's id is remembered, so looking up what a view handed
    out costs a dict get."""

    def __init__(self, backend: KBBackend) -> None:
        self._backend = backend
        self._ids: dict[Term, int] = {}

    def term(self, term_id: int) -> IRI:
        term = self._backend.dictionary.decode(term_id)
        self._ids[term] = term_id
        return term

    def id(self, term: Term) -> int | None:
        term_id = self._ids.get(term)
        if term_id is None:
            term_id = self._backend.dictionary.lookup(term)
            if term_id is not None:
                self._ids[term] = term_id
        return term_id


class ShippedSurfaceForms(SurfaceForms):
    """Surface forms and primary labels read from the shipped index."""

    def __init__(self, index: SegmentIndex, terms: _Terms) -> None:
        self._index = index
        self._terms = terms
        self._forms: dict[str, list[IRI]] = {}
        self._absent: set[str] = set()
        self._first_words: dict[str, bool] = {}
        self._labels: dict[IRI, str | None] = {}

    def _lookup(self, key: str) -> list[IRI] | None:
        found = self._forms.get(key)
        if found is None and key not in self._absent:
            ids = self._index.candidate_ids(key)
            if ids is None:
                if len(self._absent) >= MISS_MEMO_SIZE:
                    self._absent.clear()
                self._absent.add(key)
                return None
            term = self._terms.term
            found = self._forms[key] = [term(term_id) for term_id in ids]
        return found

    def _starts(self, word: str) -> bool:
        starts = self._first_words.get(word)
        if starts is None:
            if len(self._first_words) >= MISS_MEMO_SIZE:
                self._first_words.clear()
            starts = self._first_words[word] = self._index.starts(word)
        return starts

    def label(self, entity: IRI) -> str | None:
        try:
            return self._labels[entity]
        except KeyError:
            pass
        term_id = self._terms.id(entity)
        label = self._labels[entity] = (
            None if term_id is None else self._index.label(term_id)
        )
        return label

    @property
    def max_words(self) -> int:
        return self._index.max_words

    def __len__(self) -> int:
        return len(self._index)


class ShippedEntityTypes(Mapping):
    """Entity → class names (the type closure), read from the shipped
    index: a read-only mapping, iterated in entity id order."""

    def __init__(self, index: SegmentIndex, terms: _Terms) -> None:
        self._index = index
        self._terms = terms
        self._types: dict[Term, set[str] | None] = {}

    def get(self, entity, default=None):
        try:
            types = self._types[entity]
        except KeyError:
            term_id = self._terms.id(entity)
            names = [] if term_id is None else self._index.class_names(term_id)
            types = self._types[entity] = set(names) or None
        return default if types is None else types

    def __getitem__(self, entity) -> set[str]:
        types = self.get(entity)
        if types is None:
            raise KeyError(entity)
        return types

    def __contains__(self, entity) -> bool:
        return self.get(entity) is not None

    def __iter__(self) -> Iterator[IRI]:
        term = self._terms.term
        return (term(term_id) for term_id in self._index.entity_ids())

    def __len__(self) -> int:
        return len(self._index.entity_ids())


class ShippedPageLinks(PageLinks):
    """Page links read from the shipped index."""

    def __init__(self, index: SegmentIndex, terms: _Terms) -> None:
        self._index = index
        self._terms = terms
        self._out: dict[Term, set[IRI]] = {}
        self._in: dict[Term, set[IRI]] = {}

    def _linked(self, page: Term, memo: dict, ids_of) -> set[IRI]:
        found = memo.get(page)
        if found is None:
            term_id = self._terms.id(page)
            ids = () if term_id is None else ids_of(term_id)
            term = self._terms.term
            found = memo[page] = {term(linked) for linked in ids}
        return found

    def _targets(self, page: IRI) -> Iterable[IRI]:
        return self._linked(page, self._out, self._index.out_ids)

    def _sources(self, page: IRI) -> Iterable[IRI]:
        return self._linked(page, self._in, self._index.in_ids)

    def pages(self) -> set[IRI]:
        term = self._terms.term
        return {term(term_id) for term_id in self._index.page_ids()}

    def __len__(self) -> int:
        return self._index.links


def load_shipped(
    backend: KBBackend,
) -> tuple[ShippedSurfaceForms, ShippedEntityTypes, ShippedPageLinks] | None:
    """The views over the index ``backend`` ships, or None when it ships
    none.  Reads nothing: the index file maps on the first lookup."""
    index = backend.shipped_index()
    if index is None:
        return None
    terms = _Terms(backend)
    return (
        ShippedSurfaceForms(index, terms),
        ShippedEntityTypes(index, terms),
        ShippedPageLinks(index, terms),
    )
