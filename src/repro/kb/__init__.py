"""Mini-DBpedia knowledge base.

The paper queries the public DBpedia endpoint; this package provides the
offline substitute: a DBpedia-ontology-shaped schema
(:mod:`repro.kb.ontology`, :mod:`repro.kb.schema`), a curated dataset of
real-world facts (:mod:`repro.kb.dataset`), a deterministic synthetic
generator for scale benchmarks (:mod:`repro.kb.generator`), a surface-form
index (:mod:`repro.kb.labels`) and the wiki page-link graph used by entity
disambiguation (:mod:`repro.kb.pagelinks`), built in the heap or read from
a segment directory that ships them (:mod:`repro.kb.shipped`).  Everything
is assembled by :class:`repro.kb.builder.KnowledgeBase`.
"""

from repro.kb.backend import (
    BackendError,
    BackendGraph,
    InMemoryBackend,
    KBBackend,
    ReadOnlyGraphError,
)
from repro.kb.ontology import Ontology, OntologyClass, PropertyDef, PropertyKind
from repro.kb.schema import build_dbpedia_ontology
from repro.kb.builder import KnowledgeBase
from repro.kb.dataset import curated_records, load_curated_kb
from repro.kb.labels import SurfaceFormIndex, normalize_surface
from repro.kb.pagelinks import PageLinkGraph
from repro.kb.generator import generate_records, load_synthetic_kb
from repro.kb.segment import SegmentError, SegmentIntegrityError
from repro.kb.shard import (
    DEFAULT_SHARDS,
    SegmentedBackend,
    build_segments,
    shard_of_object,
    shard_of_subject,
)

__all__ = [
    "Ontology",
    "OntologyClass",
    "PropertyDef",
    "PropertyKind",
    "build_dbpedia_ontology",
    "KnowledgeBase",
    "curated_records",
    "load_curated_kb",
    "SurfaceFormIndex",
    "normalize_surface",
    "PageLinkGraph",
    "generate_records",
    "load_synthetic_kb",
    "KBBackend",
    "InMemoryBackend",
    "SegmentedBackend",
    "BackendGraph",
    "BackendError",
    "ReadOnlyGraphError",
    "SegmentError",
    "SegmentIntegrityError",
    "build_segments",
    "shard_of_subject",
    "shard_of_object",
    "DEFAULT_SHARDS",
]
