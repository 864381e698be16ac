"""Assembling a queryable knowledge base from ontology + records.

The builder materialises, exactly once and from a single source of truth:

* the RDF graph (type closure, labels, facts, page links, schema triples),
* the surface-form index for entity spotting,
* the class-label index for ``rdf:type`` object mapping (section 2.2.4),
* the page-link graph for disambiguation (section 2.2.5).
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from typing import Iterable, Sequence

from repro.kb.backend import InMemoryBackend, KBBackend
from repro.kb.labels import SurfaceFormIndex, SurfaceForms, normalize_surface
from repro.kb.ontology import Ontology, PropertyDef, PropertyKind
from repro.kb.pagelinks import PageLinkGraph, PageLinks, WIKI_PAGE_LINK
from repro.kb.records import EntityRecord
from repro.kb.shipped import load_shipped
from repro.rdf.datatypes import make_literal
from repro.rdf.namespaces import DBO, DBR, RDF, RDFS
from repro.rdf.terms import IRI, Literal, Triple
from repro.sparql.engine import SparqlEngine


class DatasetError(ValueError):
    """Raised when records are inconsistent with the ontology or each other."""


class KnowledgeBase:
    """A mini-DBpedia: storage backend + engine + lookup indexes.

    Build one with :meth:`from_records` (validating, in-memory) or
    :meth:`from_backend` (wrap an existing storage backend — e.g. an
    on-disk :class:`~repro.kb.shard.SegmentedBackend` — reading the
    derived lookup indexes it ships, or rebuilding them from its
    triples).  In-heap indexes are mutable; shipped ones are read-only
    views (:mod:`repro.kb.shipped`).

    All triple access goes through :attr:`backend`
    (:class:`~repro.kb.backend.KBBackend`); :attr:`graph` is the
    backend's Graph-compatible view, which for the default
    :class:`~repro.kb.backend.InMemoryBackend` is a plain mutable
    :class:`~repro.rdf.Graph`.
    """

    def __init__(
        self,
        ontology: Ontology,
        backend: KBBackend | None = None,
    ) -> None:
        self.ontology = ontology
        self.backend = backend if backend is not None else InMemoryBackend()
        self.backend.open()
        self.graph = self.backend.graph_view()
        self.engine = SparqlEngine(self.graph)
        self.surface_index: SurfaceForms = SurfaceFormIndex()
        self.page_links: PageLinks = PageLinkGraph()
        self._class_labels: dict[str, list[str]] = {}
        self._entity_types: Mapping[IRI, set[str]] = {}
        #: Whether the lookup indexes are the backend's shipped ones
        #: (then the pattern store it ships was mined from the same
        #: indexes, and the QA system loads it too).
        self.shipped_index = False
        self._index_class_labels()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_records(
        cls, ontology: Ontology, records: Sequence[EntityRecord]
    ) -> "KnowledgeBase":
        """Validate and materialise a record set into a knowledge base."""
        kb = cls(ontology)
        kb.add_records(records)
        return kb

    @classmethod
    def from_backend(
        cls, ontology: Ontology, backend: KBBackend
    ) -> "KnowledgeBase":
        """Serve an existing storage backend as a knowledge base.

        The derived lookup indexes — surface forms, the entity-type
        closure, the page-link graph — are read from the backend when it
        ships them (a segment directory written by
        :func:`~repro.kb.shard.build_segments`): read-only views that
        decode an entity only when a lookup touches it
        (:mod:`repro.kb.shipped`), so this decodes none.  Otherwise they
        are rebuilt from the stored triples: ``rdfs:label`` literals
        become primary surface forms (IRI local names become secondary
        ones), ``rdf:type`` triples with ``dbo:`` objects rebuild the
        type closure, and wiki page-link triples rebuild the
        disambiguation graph.  The shipped indexes were built by this
        same rebuild, so both ways answer every lookup alike, candidate
        and link-set orders included.  Free-form record aliases are not
        materialised as triples, so they do not survive the round trip —
        build both sides of a comparison through this constructor when
        exact surface-index parity matters.
        """
        kb = cls(ontology, backend=backend)
        shipped = load_shipped(backend)
        if shipped is None:
            kb._index_from_graph()
        else:
            kb.surface_index, kb._entity_types, kb.page_links = shipped
            kb.shipped_index = True
        return kb

    def index_ids(self) -> dict:
        """The in-heap lookup indexes with entities as the backend's
        dictionary ids: the keyword arguments of
        :func:`repro.kb.segment.write_index` (what
        :func:`~repro.kb.shard.build_segments` ships)."""
        encode = lru_cache(maxsize=None)(self.backend.lookup)
        forms, labels = self.surface_index.to_ids(encode)
        return {
            "forms": forms,
            "labels": labels,
            "max_words": self.surface_index.max_words,
            "types": {
                encode(entity): types
                for entity, types in self._entity_types.items()
            },
            "links": self.page_links.to_ids(encode),
        }

    def _index_from_graph(self) -> None:
        dbr_base = DBR.base
        dbo_base = DBO.base
        for subject, __, obj in self.graph.match(None, RDF.type, None):
            if (
                isinstance(subject, IRI)
                and subject.value.startswith(dbr_base)
                and isinstance(obj, IRI)
                and obj.value.startswith(dbo_base)
            ):
                self._entity_types.setdefault(subject, set()).add(
                    obj.local_name
                )
        for subject, __, obj in self.graph.match(None, RDFS.label, None):
            if (
                isinstance(subject, IRI)
                and subject.value.startswith(dbr_base)
                and isinstance(obj, Literal)
            ):
                self.surface_index.add(subject, obj.lexical, primary=True)
                self.surface_index.add(subject, subject.local_name)
        for subject, __, obj in self.graph.match(None, WIKI_PAGE_LINK, None):
            if isinstance(subject, IRI) and isinstance(obj, IRI):
                self.page_links.add_link(subject, obj)

    def add_records(self, records: Sequence[EntityRecord]) -> None:
        """Add records (validating referential integrity across the batch
        plus anything already present)."""
        known = set(self._entity_types)
        names_in_batch = {record.name for record in records}
        if len(names_in_batch) != len(records):
            seen: set[str] = set()
            for record in records:
                if record.name in seen:
                    raise DatasetError(f"duplicate record {record.name!r}")
                seen.add(record.name)
        known_names = {iri.local_name for iri in known} | names_in_batch

        for record in records:
            self._validate(record, known_names)
        for record in records:
            self._materialise(record)
        for triple in self.ontology.schema_triples():
            self.graph.add(triple)

    def _validate(self, record: EntityRecord, known_names: set[str]) -> None:
        for class_name in record.classes:
            if not self.ontology.has_class(class_name):
                raise DatasetError(
                    f"{record.name}: unknown class {class_name!r}"
                )
        for prop_name in record.facts:
            if not self.ontology.has_property(prop_name):
                raise DatasetError(
                    f"{record.name}: unknown property {prop_name!r}"
                )
            prop = self.ontology.get_property(prop_name)
            for value in record.fact_values(prop_name):
                if prop.kind is PropertyKind.OBJECT:
                    if not isinstance(value, str):
                        raise DatasetError(
                            f"{record.name}.{prop_name}: object property values "
                            f"must be resource names, got {value!r}"
                        )
                    if value not in known_names:
                        raise DatasetError(
                            f"{record.name}.{prop_name}: unknown resource {value!r}"
                        )
        for link in record.links:
            if link not in known_names:
                raise DatasetError(f"{record.name}: unknown page link {link!r}")

    def _materialise(self, record: EntityRecord) -> None:
        subject = DBR[record.name]

        # Type closure: every declared class plus all its ancestors, the
        # way DBpedia materialises rdf:type.  The triples go in closure
        # order (first seen wins), never set order, so term ids, and with
        # them every segment file, do not depend on PYTHONHASHSEED.
        type_names: dict[str, None] = {}
        for class_name in record.classes:
            type_names.update(
                dict.fromkeys(self.ontology.superclasses(class_name))
            )
        self._entity_types[subject] = set(type_names)
        for class_name in type_names:
            self.graph.add(Triple(subject, RDF.type, DBO[class_name]))

        label = record.display_label()
        self.graph.add(Triple(subject, RDFS.label, Literal(label, language="en")))
        self.surface_index.add(subject, label, primary=True)
        self.surface_index.add(subject, record.name)
        for alias in record.aliases:
            self.surface_index.add(subject, alias)

        for prop_name in record.facts:
            prop = self.ontology.get_property(prop_name)
            for value in record.fact_values(prop_name):
                if prop.kind is PropertyKind.OBJECT:
                    target = DBR[value]
                    self.graph.add(Triple(subject, prop.iri, target))
                    self.graph.add(Triple(subject, WIKI_PAGE_LINK, target))
                    self.page_links.add_link(subject, target)
                else:
                    self.graph.add(Triple(subject, prop.iri, make_literal(value)))

        for link in record.links:
            target = DBR[link]
            self.graph.add(Triple(subject, WIKI_PAGE_LINK, target))
            self.page_links.add_link(subject, target)

    def _index_class_labels(self) -> None:
        for cls in self.ontology.classes():
            key = normalize_surface(cls.display_label())
            self._class_labels.setdefault(key, []).append(cls.name)

    # ------------------------------------------------------------------
    # Lookups used by the QA pipeline
    # ------------------------------------------------------------------

    def entity(self, name: str) -> IRI:
        """The ``dbr:`` IRI for a resource local name (must exist)."""
        iri = DBR[name]
        if iri not in self._entity_types:
            raise KeyError(f"no entity named {name!r}")
        return iri

    def has_entity(self, name: str) -> bool:
        return DBR[name] in self._entity_types

    def entities(self) -> list[IRI]:
        return list(self._entity_types)

    def entity_types(self, entity: IRI) -> set[str]:
        """Local class names of an entity (full closure)."""
        return set(self._entity_types.get(entity, ()))

    def is_instance_of(self, entity: IRI, class_name: str) -> bool:
        return class_name in self._entity_types.get(entity, ())

    def classes_for_label(self, label: str) -> list[IRI]:
        """Ontology classes whose label matches (section 2.2.4).

        Matches singular/plural by also trying a naive singularisation.
        """
        key = normalize_surface(label)
        names = list(self._class_labels.get(key, ()))
        if not names and key.endswith("s"):
            names = list(self._class_labels.get(key[:-1], ()))
        if not names and key.endswith("ies"):
            names = list(self._class_labels.get(key[:-3] + "y", ()))
        return [DBO[name] for name in names]

    def label_of(self, entity: IRI) -> str:
        """Primary label of an entity or class."""
        label = self.surface_index.label(entity)
        if label is not None:
            return label
        value = self.graph.value(entity, RDFS.label)
        if isinstance(value, Literal):
            return value.lexical
        return entity.local_name.replace("_", " ")

    def object_properties(self) -> list[PropertyDef]:
        return self.ontology.object_properties()

    def data_properties(self) -> list[PropertyDef]:
        return self.ontology.data_properties()

    # Convenience query pass-throughs.

    def select(self, query: str):
        return self.engine.select(query)

    def ask(self, query: str) -> bool:
        return self.engine.ask(query)

    def __len__(self) -> int:
        return len(self.graph)
