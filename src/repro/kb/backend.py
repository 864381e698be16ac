"""The ``KBBackend`` storage protocol: pluggable triple storage.

The engines (:mod:`repro.sparql`) and the mapper never touch storage
internals — everything goes through the duck-typed read surface of
:class:`repro.rdf.Graph` (``match_ids`` / ``match_columns`` / ``count_ids``
/ ``lookup_id`` / ``decode_id`` / the term-level views).  This module
makes that boundary a real API: a :class:`KBBackend` owns the triples and
the term dictionary, and :meth:`KBBackend.graph_view` hands the engines a
Graph-compatible view of it.  Backends are therefore interchangeable
without touching a single engine line:

* :class:`InMemoryBackend` wraps the current dict-indexed
  :class:`~repro.rdf.Graph` (its graph view *is* the graph — zero
  overhead, fully mutable);
* :class:`repro.kb.shard.SegmentedBackend` serves the same protocol from
  hash-partitioned, mmap-loaded on-disk segments
  (:mod:`repro.kb.segment`), read-only and out-of-core;
* future native backends implement the same core.

The protocol core is deliberately small:

=====================  ==================================================
``open()/close()``     acquire/release storage resources (mmap handles);
                       backends are context managers
``scan(s, p, o)``      id-space pattern scan; ``None`` is a wildcard,
                       ``-1`` (an absent constant) matches nothing
``scan_columns(...)``  the same rows as three id columns (s, p, o), in
                       ``scan``'s order — what the batch join operators
                       read; built from ``scan`` unless the storage is
                       columnar already
``count(s, p, o)``     exact match count, answered without enumeration
                       where the storage layout allows
``lookup(term)``       term -> dictionary id (``-1`` when never interned)
``dictionary``         the term dictionary view (``lookup`` / ``decode`` /
                       ``__len__``)
``fingerprint()``      content identity for snapshot invalidation
                       (``repro.snapshot/v1`` embeds it)
``stats()``            backend counters (``kb.segments.*`` for segments)
=====================  ==================================================

A column from ``scan_columns`` may be a view into storage (a slice of a
shard's mapping), valid only until the backend closes: whatever keeps a
column copies it first (:func:`to_array`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from array import array
from typing import Iterable, Iterator

from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Term, Triple

IdTriple = tuple[int, int, int]


def columns_of(rows: Iterable[IdTriple]) -> tuple[array, array, array]:
    """Three id columns (s, p, o) holding ``rows`` in order."""
    s_column, p_column, o_column = columns = array("q"), array("q"), array("q")
    for s, p, o in rows:
        s_column.append(s)
        p_column.append(p)
        o_column.append(o)
    return columns


def to_array(column) -> array:
    """An owned ``array('q')`` copy of an int64 column — a storage view,
    an array or a numpy result — made with one ``frombytes``."""
    out = array("q")
    out.frombytes(memoryview(column).cast("B"))
    return out


class BackendError(RuntimeError):
    """Base class for storage-backend failures."""


class ReadOnlyGraphError(BackendError):
    """Raised when a mutation is attempted on a read-only backend view."""


class KBBackend(ABC):
    """Abstract storage backend behind the knowledge base.

    Subclasses implement the id-space core (``scan`` / ``count`` /
    ``lookup`` / ``decode`` / ``dictionary`` / ``fingerprint`` /
    ``stats``) and may serve ``scan_columns`` natively (the default
    builds the columns from ``scan``); the Graph-compatible view the
    engines consume is derived from it by :class:`BackendGraph` unless
    the backend provides a cheaper native view (the in-memory backend
    returns its wrapped graph directly).
    """

    # -- lifecycle -----------------------------------------------------

    def open(self) -> "KBBackend":
        """Acquire storage resources.  Idempotent; returns ``self``."""
        return self

    def close(self) -> None:
        """Release storage resources.  Idempotent."""

    def __enter__(self) -> "KBBackend":
        return self.open()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- id-space core -------------------------------------------------

    @abstractmethod
    def scan(
        self, s: int | None, p: int | None, o: int | None
    ) -> Iterator[IdTriple]:
        """Iterate (s, p, o) id triples matching the pattern.

        ``None`` is a wildcard; ``-1`` encodes "constant not in the
        dictionary" and matches nothing.  The iteration order is
        backend-defined but deterministic for a fixed backend state.
        """

    def scan_columns(
        self, s: int | None, p: int | None, o: int | None
    ) -> tuple:
        """:meth:`scan`'s rows as three id columns in (s, p, o) position
        order, row for row in ``scan``'s order.

        This default builds them from ``scan``; columnar storage serves
        them without a tuple per triple, possibly as views valid only
        until :meth:`close` (copy one with :func:`to_array` to keep it).
        """
        return columns_of(self.scan(s, p, o))

    @abstractmethod
    def count(
        self, s: int | None = None, p: int | None = None, o: int | None = None
    ) -> int:
        """Exact number of triples matching the pattern."""

    @abstractmethod
    def lookup(self, term: Term) -> int:
        """The term's dictionary id, or ``-1`` when never interned."""

    @abstractmethod
    def decode(self, term_id: int) -> Term:
        """Decode a dictionary id back into its :class:`Term`."""

    @property
    @abstractmethod
    def dictionary(self):
        """The term-dictionary view (``lookup``/``decode``/``__len__``)."""

    @property
    @abstractmethod
    def generation(self) -> int:
        """Monotonic mutation counter (0 forever on immutable backends)."""

    @abstractmethod
    def __len__(self) -> int:
        """Total triple count."""

    # -- identity and observability -------------------------------------

    @abstractmethod
    def fingerprint(self) -> dict:
        """Content identity for cache/snapshot invalidation.

        Two backends with equal fingerprints hold the same triples under
        the same ids; ``repro.snapshot/v1`` headers embed this (see
        :func:`repro.serve.snapshot.kb_fingerprint`) so warm state never
        restores across different storage contents.
        """

    @abstractmethod
    def stats(self) -> dict:
        """Backend counters and static sizing facts."""

    def shipped_resource(self, name: str, parse):
        """``parse(payload)`` of a resource derived from these triples
        when they were stored, or None when the backend ships none (the
        default; :class:`repro.kb.shard.SegmentedBackend` ships them)."""
        return None

    # -- engine view ----------------------------------------------------

    def graph_view(self) -> Graph:
        """A Graph-compatible read view for the engines.

        The default wraps the backend in :class:`BackendGraph`; backends
        with a native graph (in-memory) override this to skip the
        adapter entirely.
        """
        return BackendGraph(self)  # type: ignore[return-value]


class InMemoryBackend(KBBackend):
    """The current single-heap storage, behind the backend protocol.

    Wraps a :class:`~repro.rdf.Graph`; the graph view is the graph itself
    so existing engine behaviour (and performance) is bit-for-bit
    unchanged.  This is the default backend of every
    :class:`repro.kb.builder.KnowledgeBase`.
    """

    def __init__(self, graph: Graph | None = None) -> None:
        self._graph = graph if graph is not None else Graph()

    @property
    def graph(self) -> Graph:
        return self._graph

    def scan(
        self, s: int | None, p: int | None, o: int | None
    ) -> Iterator[IdTriple]:
        return self._graph.match_ids(s, p, o)

    def count(
        self, s: int | None = None, p: int | None = None, o: int | None = None
    ) -> int:
        return self._graph.count_ids(s, p, o)

    def lookup(self, term: Term) -> int:
        return self._graph.lookup_id(term)

    def decode(self, term_id: int) -> Term:
        return self._graph.decode_id(term_id)

    @property
    def dictionary(self):
        return self._graph.dictionary

    @property
    def generation(self) -> int:
        return self._graph.generation

    def __len__(self) -> int:
        return len(self._graph)

    def fingerprint(self) -> dict:
        return {
            "kind": "memory",
            "triples": len(self._graph),
            "generation": self._graph.generation,
        }

    def stats(self) -> dict:
        return {
            "kind": "memory",
            "triples": len(self._graph),
            "terms": len(self._graph.dictionary),
        }

    def graph_view(self) -> Graph:
        return self._graph


class BackendGraph:
    """Graph-compatible **read-only** view over any :class:`KBBackend`.

    Implements the exact duck-typed surface the engines and KB lookups
    consume from :class:`~repro.rdf.Graph` — ``match_ids`` /
    ``match_columns`` / ``count_ids`` / ``lookup_id`` / ``decode_id`` /
    ``generation`` / ``dictionary`` plus the term-level views — by
    delegating to the backend's id-space core.
    Mutation raises :class:`ReadOnlyGraphError`: out-of-core backends are
    immutable snapshots; rebuild the segments to change the data.
    """

    __slots__ = ("_backend",)

    def __init__(self, backend: KBBackend) -> None:
        self._backend = backend

    @property
    def backend(self) -> KBBackend:
        return self._backend

    # -- identity ------------------------------------------------------

    @property
    def generation(self) -> int:
        return self._backend.generation

    @property
    def dictionary(self):
        return self._backend.dictionary

    def lookup_id(self, term: Term) -> int:
        return self._backend.lookup(term)

    def decode_id(self, term_id: int) -> Term:
        return self._backend.decode(term_id)

    def _maybe_lookup(self, term: Term | None) -> int | None:
        if term is None:
            return None
        return self._backend.lookup(term)

    # -- mutation (refused) --------------------------------------------

    def add(self, triple: Triple) -> bool:
        raise ReadOnlyGraphError(
            "backend graph view is read-only; rebuild the segments to "
            "change the data"
        )

    def add_all(self, triples) -> int:
        raise ReadOnlyGraphError(
            "backend graph view is read-only; rebuild the segments to "
            "change the data"
        )

    def remove(self, triple: Triple) -> bool:
        raise ReadOnlyGraphError(
            "backend graph view is read-only; rebuild the segments to "
            "change the data"
        )

    # -- id-space reads (the engine hot path) --------------------------

    def match_ids(
        self, s: int | None, p: int | None, o: int | None
    ) -> Iterator[IdTriple]:
        if -1 in (s, p, o):
            return iter(())
        return self._backend.scan(s, p, o)

    def match_columns(
        self, s: int | None, p: int | None, o: int | None
    ) -> tuple:
        """:meth:`match_ids`'s rows as three id columns
        (:meth:`KBBackend.scan_columns`)."""
        return self._backend.scan_columns(s, p, o)

    def count_ids(
        self, s: int | None = None, p: int | None = None, o: int | None = None
    ) -> int:
        if -1 in (s, p, o):
            return 0
        return self._backend.count(s, p, o)

    # -- term-level reads ----------------------------------------------

    def __len__(self) -> int:
        return len(self._backend)

    def __iter__(self) -> Iterator[Triple]:
        return self.match(None, None, None)

    def __contains__(self, triple: Triple) -> bool:
        s = self._backend.lookup(triple.subject)
        p = self._backend.lookup(triple.predicate)
        o = self._backend.lookup(triple.object)
        if -1 in (s, p, o):
            return False
        return self._backend.count(s, p, o) > 0

    def match(
        self,
        subject: Term | None,
        predicate: Term | None,
        obj: Term | None,
    ) -> Iterator[Triple]:
        decode = self._backend.decode
        for s, p, o in self.match_ids(
            self._maybe_lookup(subject),
            self._maybe_lookup(predicate),
            self._maybe_lookup(obj),
        ):
            yield Triple(decode(s), decode(p), decode(o))

    def count(
        self,
        subject: Term | None = None,
        predicate: Term | None = None,
        obj: Term | None = None,
    ) -> int:
        return self.count_ids(
            self._maybe_lookup(subject),
            self._maybe_lookup(predicate),
            self._maybe_lookup(obj),
        )

    def subjects(self) -> Iterator[Term]:
        decode = self._backend.decode
        for s_id in self._distinct(0):
            yield decode(s_id)

    def predicates(self) -> Iterator[IRI]:
        decode = self._backend.decode
        for p_id in self._distinct(1):
            term = decode(p_id)
            assert isinstance(term, IRI)
            yield term

    def objects(self) -> Iterator[Term]:
        decode = self._backend.decode
        for o_id in self._distinct(2):
            yield decode(o_id)

    def _distinct(self, position: int) -> Iterator[int]:
        distinct = getattr(self._backend, "distinct_ids", None)
        if distinct is not None:
            yield from distinct(position)
            return
        seen: set[int] = set()
        for triple in self._backend.scan(None, None, None):
            value = triple[position]
            if value not in seen:
                seen.add(value)
                yield value

    def objects_of(self, subject: Term, predicate: Term) -> Iterator[Term]:
        for __, __, o in self.match(subject, predicate, None):
            yield o

    def subjects_of(self, predicate: Term, obj: Term) -> Iterator[Term]:
        for s, __, __ in self.match(None, predicate, obj):
            yield s

    def value(self, subject: Term, predicate: Term) -> Term | None:
        return next(self.objects_of(subject, predicate), None)
