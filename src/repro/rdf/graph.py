"""Dictionary-encoded triple store with SPO / POS / OSP indexes.

The three cyclic permutation indexes cover every access pattern the SPARQL
executor needs with at most one level of iteration:

====================  =================
bound slots           index used
====================  =================
s --, s p -, s p o    SPO
p -, p o              POS
o -, o s              OSP
(none bound)          SPO full scan
====================  =================

Each index is a two-level ``dict[int, dict[int, set[int]]]``.  The store
also keeps one triple count per predicate, so the planner's count of a
pattern bound in its predicate alone is a dict lookup, not a scan.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator

from repro.rdf.dictionary import TermDictionary
from repro.rdf.terms import BNode, IRI, Literal, Term, Triple

_Index = dict[int, dict[int, set[int]]]


def _repeat(value: int, times: int) -> array:
    return array("q", (value,)) * times


def _index_add(index: _Index, a: int, b: int, c: int) -> None:
    index.setdefault(a, {}).setdefault(b, set()).add(c)


def _index_remove(index: _Index, a: int, b: int, c: int) -> None:
    level_b = index[a]
    level_c = level_b[b]
    level_c.discard(c)
    if not level_c:
        del level_b[b]
        if not level_b:
            del index[a]


class Graph:
    """An in-memory RDF graph.

    >>> from repro.rdf import DBO, DBR, RDF
    >>> g = Graph()
    >>> g.add(Triple(DBR.Snow, DBO.author, DBR.Orhan_Pamuk))
    True
    >>> len(g)
    1
    >>> next(iter(g.match(None, DBO.author, None))).subject.local_name
    'Snow'
    """

    def __init__(self, triples: Iterable[Triple] | None = None) -> None:
        self._dictionary = TermDictionary()
        self._spo: _Index = {}
        self._pos: _Index = {}
        self._osp: _Index = {}
        #: predicate id -> number of triples with that predicate.
        self._predicate_sizes: dict[int, int] = {}
        self._size = 0
        self._generation = 0
        if triples is not None:
            self.add_all(triples)

    @property
    def generation(self) -> int:
        """Monotonic mutation counter.

        Bumped by every successful :meth:`add`/:meth:`remove`, never reset.
        Query-result caches (see :class:`repro.sparql.engine.SparqlEngine`)
        key their validity on this value: a changed generation means any
        cached bindings may be stale.  Reads never change it, so concurrent
        readers of an unchanging graph observe a stable generation.
        """
        return self._generation

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, triple: Triple) -> bool:
        """Assert a ground triple.  Returns False when already present."""
        if not triple.is_ground():
            raise ValueError(f"cannot assert a non-ground triple: {triple}")
        s = self._dictionary.encode(triple.subject)
        p = self._dictionary.encode(triple.predicate)
        o = self._dictionary.encode(triple.object)
        objects = self._spo.setdefault(s, {}).setdefault(p, set())
        if o in objects:
            return False
        objects.add(o)
        _index_add(self._pos, p, o, s)
        _index_add(self._osp, o, s, p)
        self._predicate_sizes[p] = self._predicate_sizes.get(p, 0) + 1
        self._size += 1
        self._generation += 1
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Assert many triples; returns the number actually added."""
        return sum(1 for triple in triples if self.add(triple))

    def remove(self, triple: Triple) -> bool:
        """Retract a ground triple.  Returns False when absent."""
        ids = self._encode_ground(triple)
        if ids is None:
            return False
        s, p, o = ids
        objects = self._spo.get(s, {}).get(p)
        if objects is None or o not in objects:
            return False
        _index_remove(self._spo, s, p, o)
        _index_remove(self._pos, p, o, s)
        _index_remove(self._osp, o, s, p)
        remaining = self._predicate_sizes[p] - 1
        if remaining:
            self._predicate_sizes[p] = remaining
        else:
            del self._predicate_sizes[p]
        self._size -= 1
        self._generation += 1
        return True

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __contains__(self, triple: Triple) -> bool:
        ids = self._encode_ground(triple)
        if ids is None:
            return False
        s, p, o = ids
        return o in self._spo.get(s, {}).get(p, ())

    def __iter__(self) -> Iterator[Triple]:
        return self.match(None, None, None)

    def match(
        self,
        subject: Term | None,
        predicate: Term | None,
        obj: Term | None,
    ) -> Iterator[Triple]:
        """Iterate triples matching the pattern; ``None`` is a wildcard."""
        yield from (
            Triple(
                self._dictionary.decode(s),
                self._dictionary.decode(p),
                self._dictionary.decode(o),
            )
            for s, p, o in self.match_ids(
                self._maybe_lookup(subject),
                self._maybe_lookup(predicate),
                self._maybe_lookup(obj),
            )
        )

    def match_ids(
        self, s: int | None, p: int | None, o: int | None
    ) -> Iterator[tuple[int, int, int]]:
        """Id-level pattern matching; backbone of the SPARQL executor.

        ``-1`` encodes "constant not in dictionary" (matches nothing).
        """
        if -1 in (s, p, o):
            return
        if s is not None:
            by_p = self._spo.get(s)
            if by_p is None:
                return
            if p is not None:
                objects = by_p.get(p)
                if objects is None:
                    return
                if o is not None:
                    if o in objects:
                        yield (s, p, o)
                    return
                for obj_id in objects:
                    yield (s, p, obj_id)
                return
            for p_id, objects in by_p.items():
                if o is not None:
                    if o in objects:
                        yield (s, p_id, o)
                else:
                    for obj_id in objects:
                        yield (s, p_id, obj_id)
            return
        if p is not None:
            by_o = self._pos.get(p)
            if by_o is None:
                return
            if o is not None:
                for s_id in by_o.get(o, ()):
                    yield (s_id, p, o)
                return
            for o_id, subjects in by_o.items():
                for s_id in subjects:
                    yield (s_id, p, o_id)
            return
        if o is not None:
            by_s = self._osp.get(o)
            if by_s is None:
                return
            for s_id, predicates in by_s.items():
                for p_id in predicates:
                    yield (s_id, p_id, o)
            return
        for s_id, by_p in self._spo.items():
            for p_id, objects in by_p.items():
                for o_id in objects:
                    yield (s_id, p_id, o_id)

    def match_columns(
        self, s: int | None, p: int | None, o: int | None
    ) -> tuple[array, array, array]:
        """:meth:`match_ids`'s rows as three id columns (s, p, o), row for
        row in its order: the batch join operators' scan.

        Built from the index levels — a level's set extends a column, a
        constant repeats — never one tuple per triple.
        """
        s_column, p_column, o_column = array("q"), array("q"), array("q")
        if -1 in (s, p, o):
            return s_column, p_column, o_column
        if s is not None:
            by_p = self._spo.get(s, {})
            if p is not None:
                objects = by_p.get(p, ())
                if o is None:
                    o_column.extend(objects)
                elif o in objects:
                    o_column.append(o)
                p_column = _repeat(p, len(o_column))
            else:
                for p_id, objects in by_p.items():
                    if o is None:
                        o_column.extend(objects)
                        p_column.extend(_repeat(p_id, len(objects)))
                    elif o in objects:
                        p_column.append(p_id)
                if o is not None:
                    o_column = _repeat(o, len(p_column))
            return _repeat(s, len(o_column)), p_column, o_column
        if p is not None:
            by_o = self._pos.get(p, {})
            if o is not None:
                s_column.extend(by_o.get(o, ()))
                o_column = _repeat(o, len(s_column))
            else:
                for o_id, subjects in by_o.items():
                    s_column.extend(subjects)
                    o_column.extend(_repeat(o_id, len(subjects)))
            return s_column, _repeat(p, len(s_column)), o_column
        if o is not None:
            for s_id, predicates in self._osp.get(o, {}).items():
                p_column.extend(predicates)
                s_column.extend(_repeat(s_id, len(predicates)))
            return s_column, p_column, _repeat(o, len(s_column))
        for s_id, by_p in self._spo.items():
            for p_id, objects in by_p.items():
                o_column.extend(objects)
                p_column.extend(_repeat(p_id, len(objects)))
            s_column.extend(_repeat(s_id, len(o_column) - len(s_column)))
        return s_column, p_column, o_column

    def count(
        self,
        subject: Term | None = None,
        predicate: Term | None = None,
        obj: Term | None = None,
    ) -> int:
        """Exact number of triples matching a pattern.

        Bound-prefix lookups are answered from index sizes without
        enumeration where possible; this is what the planner's selectivity
        estimates call.
        """
        return self.count_ids(
            self._maybe_lookup(subject),
            self._maybe_lookup(predicate),
            self._maybe_lookup(obj),
        )

    def count_ids(
        self, s: int | None = None, p: int | None = None, o: int | None = None
    ) -> int:
        """Id-level twin of :meth:`count` (``-1`` = absent constant).

        The compiled id-space executor calls this to decide between the
        nested-index-loop and hash-join operators without decoding terms.
        """
        if -1 in (s, p, o):
            return 0
        if s is None and p is None and o is None:
            return self._size
        if s is not None and p is None and o is None:
            return sum(len(objs) for objs in self._spo.get(s, {}).values())
        if s is not None and p is not None and o is None:
            return len(self._spo.get(s, {}).get(p, ()))
        if p is not None and s is None and o is None:
            return self._predicate_sizes.get(p, 0)
        if p is not None and o is not None and s is None:
            return len(self._pos.get(p, {}).get(o, ()))
        if o is not None and s is None and p is None:
            return sum(len(preds) for preds in self._osp.get(o, {}).values())
        if o is not None and s is not None and p is None:
            return len(self._osp.get(o, {}).get(s, ()))
        # Fully bound: membership test.
        return 1 if o in self._spo.get(s, {}).get(p, ()) else 0

    # ------------------------------------------------------------------
    # Vocabulary views
    # ------------------------------------------------------------------

    def subjects(self) -> Iterator[Term]:
        """Distinct subjects in the graph."""
        for s_id in self._spo:
            yield self._dictionary.decode(s_id)

    def predicates(self) -> Iterator[IRI]:
        """Distinct predicates in the graph."""
        for p_id in self._pos:
            term = self._dictionary.decode(p_id)
            assert isinstance(term, IRI)
            yield term

    def objects(self) -> Iterator[Term]:
        """Distinct objects in the graph."""
        for o_id in self._osp:
            yield self._dictionary.decode(o_id)

    def objects_of(self, subject: Term, predicate: Term) -> Iterator[Term]:
        """All o with (subject, predicate, o) asserted."""
        for __, __, o in self.match(subject, predicate, None):
            yield o

    def subjects_of(self, predicate: Term, obj: Term) -> Iterator[Term]:
        """All s with (s, predicate, obj) asserted."""
        for s, __, __ in self.match(None, predicate, obj):
            yield s

    def value(self, subject: Term, predicate: Term) -> Term | None:
        """The first object for (subject, predicate), or None."""
        return next(self.objects_of(subject, predicate), None)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @property
    def dictionary(self) -> TermDictionary:
        """The term dictionary (shared with the SPARQL executor)."""
        return self._dictionary

    def lookup_id(self, term: Term) -> int:
        """The term's dictionary id, or ``-1`` when never interned.

        Ids are append-only (never recycled, never reassigned), so a
        non-negative id stays valid for the lifetime of the graph.  A
        compiled plan resolves its constants through this once, as it
        compiles.
        """
        term_id = self._dictionary.lookup(term)
        return -1 if term_id is None else term_id

    def decode_id(self, term_id: int) -> Term:
        """Decode a dictionary id back into its :class:`Term`."""
        return self._dictionary.decode(term_id)

    def _maybe_lookup(self, term: Term | None) -> int | None:
        """Map a term to its id; None stays None; unseen terms become -1."""
        if term is None:
            return None
        term_id = self._dictionary.lookup(term)
        return -1 if term_id is None else term_id

    def _encode_ground(self, triple: Triple) -> tuple[int, int, int] | None:
        if not triple.is_ground():
            raise ValueError(f"expected a ground triple, got {triple}")
        s = self._dictionary.lookup(triple.subject)
        p = self._dictionary.lookup(triple.predicate)
        o = self._dictionary.lookup(triple.object)
        if s is None or p is None or o is None:
            return None
        return (s, p, o)
