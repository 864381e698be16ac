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


class PageLinkGraph:
    """An undirected view over directed wiki page links."""

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

    def to_state(self, encode) -> list:
        """A JSON-able copy of the links: each source page with its
        targets, sources in insertion order.  ``encode`` maps a page to
        its JSON form (a dictionary id); targets are sorted by it."""
        return [
            [encode(source), sorted(encode(target) for target in targets)]
            for source, targets in self._out.items()
        ]

    @classmethod
    def from_state(cls, state: list, decode) -> "PageLinkGraph":
        """Inverse of :meth:`to_state`; ``decode`` inverts its ``encode``."""
        graph = cls()
        incoming = graph._in
        for page, linked in state:
            source = decode(page)
            targets = graph._out[source] = {decode(target) for target in linked}
            for target in targets:
                incoming[target].add(source)
        return graph

    def out_links(self, page: IRI) -> set[IRI]:
        return set(self._out.get(page, ()))

    def in_links(self, page: IRI) -> set[IRI]:
        return set(self._in.get(page, ()))

    def neighbours(self, page: IRI) -> set[IRI]:
        """Undirected neighbourhood (links in either direction)."""
        return self.out_links(page) | self.in_links(page)

    def degree(self, page: IRI) -> int:
        return len(self.neighbours(page))

    def connected(self, a: IRI, b: IRI) -> bool:
        """True when a links to b or b links to a."""
        return b in self._out.get(a, ()) or a in self._out.get(b, ())

    def shared_neighbours(self, a: IRI, b: IRI) -> set[IRI]:
        return self.neighbours(a) & self.neighbours(b)

    def pages(self) -> set[IRI]:
        return set(self._out) | set(self._in)

    def __len__(self) -> int:
        return sum(len(targets) for targets in self._out.values())
