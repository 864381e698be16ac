"""Wikipedia page-link graph.

DBpedia ships ``dbo:wikiPageWikiLink`` triples derived from the links
between Wikipedia articles.  The disambiguation method of Hakimov et al.
2012 (the paper's reference [15]) scores candidate entities by graph
centrality over exactly this link structure; :class:`PageLinkGraph` provides
the neighbourhood and degree queries that scoring needs.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from repro.rdf.namespaces import DBO
from repro.rdf.terms import IRI

#: The predicate DBpedia uses for page links.
WIKI_PAGE_LINK = DBO.wikiPageWikiLink


class PageLinks:
    """The query surface of the page-link graph: an undirected view over
    directed wiki page links.

    Written once over two primitives each graph kind provides:
    :meth:`_targets` and :meth:`_sources` (the pages a page links to /
    is linked from: the graph's own set, or an empty tuple, which
    callers copy and never mutate).  A copy iterates like the set it
    copies, so the order in which a graph builds each set is the order
    centrality sums in.  :class:`PageLinkGraph` is the mutable
    in-heap graph; :class:`repro.kb.shipped.ShippedPageLinks` reads a
    segment directory's shipped index.
    """

    def _targets(self, page: IRI) -> Iterable[IRI]:
        raise NotImplementedError

    def _sources(self, page: IRI) -> Iterable[IRI]:
        raise NotImplementedError

    def pages(self) -> set[IRI]:
        raise NotImplementedError

    def __len__(self) -> int:
        """The number of links."""
        raise NotImplementedError

    def out_links(self, page: IRI) -> set[IRI]:
        return set(self._targets(page))

    def in_links(self, page: IRI) -> set[IRI]:
        return set(self._sources(page))

    def neighbours(self, page: IRI) -> set[IRI]:
        """Undirected neighbourhood (links in either direction)."""
        return set(self._targets(page)) | set(self._sources(page))

    def degree(self, page: IRI) -> int:
        return len(self.neighbours(page))

    def connected(self, a: IRI, b: IRI) -> bool:
        """True when a links to b or b links to a."""
        return b in self._targets(a) or a in self._targets(b)

    def shared_neighbours(self, a: IRI, b: IRI) -> set[IRI]:
        return self.neighbours(a) & self.neighbours(b)


class PageLinkGraph(PageLinks):
    """Page links held in the heap (mutable)."""

    def __init__(self) -> None:
        self._out: dict[IRI, set[IRI]] = defaultdict(set)
        self._in: dict[IRI, set[IRI]] = defaultdict(set)

    def add_link(self, source: IRI, target: IRI) -> None:
        if source == target:
            return
        self._out[source].add(target)
        self._in[target].add(source)

    def add_links(self, source: IRI, targets: Iterable[IRI]) -> None:
        for target in targets:
            self.add_link(source, target)

    def to_ids(self, encode) -> dict[int, list[int]]:
        """Each source page with its targets, pages as ``encode(page)``
        (dictionary ids): what :func:`repro.kb.segment.write_index`
        ships."""
        return {
            encode(source): [encode(target) for target in targets]
            for source, targets in self._out.items()
        }

    def _targets(self, page: IRI) -> Iterable[IRI]:
        return self._out.get(page, ())

    def _sources(self, page: IRI) -> Iterable[IRI]:
        return self._in.get(page, ())

    def pages(self) -> set[IRI]:
        return set(self._out) | set(self._in)

    def __len__(self) -> int:
        return sum(len(targets) for targets in self._out.values())
