"""Ontology model: class hierarchy and property definitions.

The property-mapping steps of the pipeline (section 2.2) need to know, for
every DBpedia property, whether it is an *object* property or a *data*
property, its label, and — for answer-type checking (section 2.3.2) — the
range of values it produces.  The class hierarchy supplies the subclass
closure used both when materialising ``rdf:type`` triples and when checking
expected answer types ("Person, Organization, Company" for *Who* questions).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.rdf.namespaces import DBO, RDF, RDFS
from repro.rdf.terms import IRI, Literal, Triple
from repro.similarity.lcs import LabelIndex


class PropertyKind(enum.Enum):
    """DBpedia distinguishes object properties (entity-valued) from data
    properties (literal-valued)."""

    OBJECT = "object"
    DATA = "data"


class ValueType(enum.Enum):
    """Coarse range classification used by expected-answer-type checking."""

    ENTITY = "entity"
    NUMERIC = "numeric"
    DATE = "date"
    STRING = "string"
    BOOLEAN = "boolean"


@dataclass(frozen=True, slots=True)
class OntologyClass:
    """A DBpedia ontology class such as ``dbo:Book``."""

    name: str  # local name, e.g. "Book"
    parent: str | None = None  # local name of the superclass
    label: str | None = None

    @property
    def iri(self) -> IRI:
        return DBO[self.name]

    def display_label(self) -> str:
        return self.label if self.label is not None else _decamel(self.name)


@dataclass(frozen=True, slots=True)
class PropertyDef:
    """A DBpedia ontology property such as ``dbo:birthPlace``."""

    name: str  # local name, e.g. "birthPlace"
    kind: PropertyKind
    value_type: ValueType
    domain: str | None = None  # local class name
    range: str | None = None  # local class name (object properties)
    label: str | None = None

    @property
    def iri(self) -> IRI:
        return DBO[self.name]

    def display_label(self) -> str:
        return self.label if self.label is not None else _decamel(self.name)


def _decamel(name: str) -> str:
    """``birthPlace`` -> ``birth place``; ``populationTotal`` -> ``population total``."""
    out: list[str] = []
    for ch in name:
        if ch.isupper() and out:
            out.append(" ")
        out.append(ch.lower())
    return "".join(out)


class Ontology:
    """A class taxonomy plus a property catalogue.

    >>> ontology = Ontology()
    >>> ontology.add_class(OntologyClass("Person"))
    >>> ontology.add_class(OntologyClass("Writer", parent="Person"))
    >>> ontology.superclasses("Writer")
    ['Writer', 'Person']
    """

    def __init__(self) -> None:
        self._classes: dict[str, OntologyClass] = {}
        self._properties: dict[str, PropertyDef] = {}
        #: object_only -> the property-label index (:meth:`label_index`).
        self._label_indexes: dict[bool, LabelIndex] = {}

    # -- classes -----------------------------------------------------------

    def add_class(self, cls: OntologyClass) -> None:
        if cls.name in self._classes:
            raise ValueError(f"duplicate class {cls.name!r}")
        if cls.parent is not None and cls.parent not in self._classes:
            raise ValueError(
                f"class {cls.name!r} declares unknown parent {cls.parent!r}"
            )
        self._classes[cls.name] = cls

    def classes(self) -> Iterator[OntologyClass]:
        return iter(self._classes.values())

    def has_class(self, name: str) -> bool:
        return name in self._classes

    def get_class(self, name: str) -> OntologyClass:
        try:
            return self._classes[name]
        except KeyError:
            raise KeyError(f"unknown ontology class {name!r}") from None

    def superclasses(self, name: str) -> list[str]:
        """The class itself followed by all ancestors, root last."""
        chain: list[str] = []
        current: str | None = name
        while current is not None:
            if current in chain:
                raise ValueError(f"class hierarchy cycle at {current!r}")
            chain.append(current)
            current = self.get_class(current).parent
        return chain

    def subclasses(self, name: str) -> set[str]:
        """All descendants of a class, excluding the class itself."""
        self.get_class(name)
        out: set[str] = set()
        frontier = {name}
        while frontier:
            frontier = {
                cls.name
                for cls in self._classes.values()
                if cls.parent in frontier
            }
            out |= frontier
        return out

    def is_subclass_of(self, name: str, ancestor: str) -> bool:
        """True when ``name`` equals or descends from ``ancestor``."""
        return ancestor in self.superclasses(name)

    # -- properties ----------------------------------------------------------

    def add_property(self, prop: PropertyDef) -> None:
        if prop.name in self._properties:
            raise ValueError(f"duplicate property {prop.name!r}")
        for class_ref in (prop.domain, prop.range):
            if class_ref is not None and class_ref not in self._classes:
                raise ValueError(
                    f"property {prop.name!r} references unknown class {class_ref!r}"
                )
        self._properties[prop.name] = prop
        self._label_indexes.clear()

    def properties(self) -> Iterator[PropertyDef]:
        return iter(self._properties.values())

    def has_property(self, name: str) -> bool:
        return name in self._properties

    def get_property(self, name: str) -> PropertyDef:
        try:
            return self._properties[name]
        except KeyError:
            raise KeyError(f"unknown ontology property {name!r}") from None

    def object_properties(self) -> list[PropertyDef]:
        return [p for p in self._properties.values() if p.kind is PropertyKind.OBJECT]

    def data_properties(self) -> list[PropertyDef]:
        return [p for p in self._properties.values() if p.kind is PropertyKind.DATA]

    def label_index(self, object_only: bool = False) -> LabelIndex:
        """Each property's name and decamelised label words, over every
        property or over object properties only, packed for the
        bit-parallel vocabulary scan of 2.2.1/2.2.2
        (:meth:`~repro.similarity.lcs.LabelIndex.scores`).

        It depends on the catalogue alone, so it is built on first use,
        shared by every mapper over this ontology, and dropped by
        :meth:`add_property`.

        >>> ontology = Ontology()
        >>> ontology.add_property(
        ...     PropertyDef("birthPlace", PropertyKind.OBJECT, ValueType.ENTITY))
        >>> ontology.label_index().words("birthPlace")
        ('birthPlace', 'birth', 'place')
        >>> ontology.label_index() is ontology.label_index()
        True
        """
        index = self._label_indexes.get(object_only)
        if index is None:
            # Two threads that race here each build an index over the same
            # catalogue; both are equal, the later assignment wins, and
            # either answers every scan the same way.
            index = self._label_indexes[object_only] = LabelIndex(
                (prop.name, (prop.name, *prop.display_label().split()))
                for prop in self._properties.values()
                if not object_only or prop.kind is PropertyKind.OBJECT
            )
        return index

    # -- RDF view -------------------------------------------------------------

    def schema_triples(self) -> Iterator[Triple]:
        """The ontology as RDF: labels and subclass axioms.

        These triples live in the same graph as the instance data, exactly
        like DBpedia serves its T-Box alongside the A-Box.
        """
        owl_class = IRI("http://www.w3.org/2002/07/owl#Class")
        for cls in self._classes.values():
            yield Triple(cls.iri, RDF.type, owl_class)
            yield Triple(cls.iri, RDFS.label, Literal(cls.display_label(), language="en"))
            if cls.parent is not None:
                yield Triple(cls.iri, RDFS.subClassOf, DBO[cls.parent])
        owl_object = IRI("http://www.w3.org/2002/07/owl#ObjectProperty")
        owl_data = IRI("http://www.w3.org/2002/07/owl#DatatypeProperty")
        for prop in self._properties.values():
            kind_iri = owl_object if prop.kind is PropertyKind.OBJECT else owl_data
            yield Triple(prop.iri, RDF.type, kind_iri)
            yield Triple(prop.iri, RDFS.label, Literal(prop.display_label(), language="en"))
            if prop.domain is not None:
                yield Triple(prop.iri, RDFS.domain, DBO[prop.domain])
            if prop.range is not None:
                yield Triple(prop.iri, RDFS.range, DBO[prop.range])
