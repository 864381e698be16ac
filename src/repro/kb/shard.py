"""Hash-partitioned segment sets: the builder and the out-of-core backend.

:func:`build_segments` splits a graph's triples across N shards by a mixed
hash of the **subject id** and serializes each shard with
:mod:`repro.kb.segment`.  Subject-hash partitioning has two properties the
query layer leans on:

* a subject-bound scan touches exactly **one** shard
  (:func:`shard_of_subject` routes it), and
* every solution of a subject-star BGP (all patterns sharing one subject
  variable) lives entirely inside one shard — which is what makes the
  per-shard fan-out of :mod:`repro.sparql.scatter` correct without any
  cross-shard deduplication.

Alongside the subject partition the builder writes a **secondary
object-hash partition** (``oshard_NNN.seg``): the same triples,
repartitioned by a mixed hash of the **object id**, so an object-bound
scan or count (``s`` free) touches exactly **one** object shard
(:func:`shard_of_object` routes it — no merge across the subject shards).

:class:`SegmentedBackend` serves the :class:`repro.kb.backend.KBBackend`
protocol from such a directory: the dictionary and the shard columns stay
mmapped (out-of-core — the heap never holds the triple set), a routed
scan reads one shard, a multi-shard scan merges the per-shard sorted runs
into one deterministic globally sorted scan (``heapq.merge`` over tuple
streams; one stable sort of the concatenated runs over column scans),
and counts are sums of per-shard range subtractions.  Directories
written before the secondary partition existed (no ``object_shards``
manifest key) still open and serve; only the object routing stays off.

The builder also derives, once, what a server would otherwise rebuild
from the triples at every start: the KB's lookup indexes and the mined
PATTY pattern store.  They ship beside the shards as checksummed
resource files (:mod:`repro.kb.segment`):
:meth:`SegmentedBackend.shipped_index` serves the indexes (read on first
touch) and :meth:`SegmentedBackend.shipped_resource` the store.
"""

from __future__ import annotations

import heapq
import os
import time
from typing import Iterator

try:  # optional: sorts merged column scans; heapq.merge without it
    import numpy as _np  # type: ignore
except ImportError:  # pragma: no cover - exercised via monkeypatch in tests
    _np = None

from repro.kb.backend import (
    KBBackend,
    BackendGraph,
    IdTriple,
    columns_of,
    to_array,
)
from repro.kb.segment import (
    INDEX_RESOURCE,
    PATTERNS_RESOURCE,
    SegmentDictionary,
    SegmentError,
    SegmentIndex,
    SegmentIntegrityError,
    SegmentShard,
    read_manifest,
    read_resource,
    scan_order,
    scan_order_key,
    write_dictionary,
    write_index,
    write_manifest,
    write_resource,
    write_shard,
)
from repro.obs.metrics import MetricsRegistry
from repro.rdf.graph import Graph
from repro.rdf.terms import Term

#: Default shard count for :func:`build_segments`.
DEFAULT_SHARDS = 8


def _mix64(value: int) -> int:
    """The splitmix64 finalizer: decorrelates dense dictionary ids so
    partition sizes stay balanced even though subject ids are sequential."""
    value = (value + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


#: Salt decorrelating the object partition from the subject partition, so
#: a term appearing as both subject and object does not force the two
#: partitions to co-locate it (sizes stay independently balanced).
_OBJECT_SALT = 0x6A09E667F3BCC909


def shard_of_subject(subject_id: int, shards: int) -> int:
    """The shard a subject id routes to."""
    return _mix64(subject_id) % shards


def shard_of_object(object_id: int, shards: int) -> int:
    """The secondary (object-hash) shard an object id routes to."""
    return _mix64(object_id ^ _OBJECT_SALT) % shards


def shard_filename(shard: int) -> str:
    return f"shard_{shard:03d}.seg"


def object_shard_filename(shard: int) -> str:
    return f"oshard_{shard:03d}.seg"


def build_segments(
    graph: Graph,
    out_dir: str | os.PathLike,
    shards: int = DEFAULT_SHARDS,
    object_shards: int | None = None,
) -> dict:
    """Partition ``graph`` into an on-disk segment directory.

    Returns the written manifest, plus ``mine_s`` (the seconds spent
    deriving the shipped resources, not written to disk).  The dictionary
    is shared (ids stay global and identical to the source graph's, so
    id-space plans compiled against either backend resolve constants to
    the same ids); each shard holds the triples whose subject hashes to
    it — possibly none, an empty shard is a valid (and checksummed)
    segment.

    ``object_shards`` sizes the secondary object-hash partition (defaults
    to ``shards``; pass ``0`` to skip it — the directory then serves
    subject routing only, like directories written before the secondary
    partition existed).

    Once the triples are written, the builder opens the directory and
    derives the KB's lookup indexes and the PATTY pattern store from it
    (:func:`_ship_resources`), so a server loads them instead of
    rebuilding them.
    """
    if shards < 1:
        raise ValueError(f"shard count must be >= 1, got {shards}")
    if object_shards is None:
        object_shards = shards
    if object_shards < 0:
        raise ValueError(
            f"object shard count must be >= 0, got {object_shards}"
        )
    directory = os.fspath(out_dir)
    os.makedirs(directory, exist_ok=True)

    dictionary = graph.dictionary
    terms = [dictionary.decode(term_id) for term_id in range(len(dictionary))]
    checksums = {
        "dictionary.bin": write_dictionary(
            os.path.join(directory, "dictionary.bin"), terms
        )
    }

    partitions: list[list[IdTriple]] = [[] for __ in range(shards)]
    object_partitions: list[list[IdTriple]] = [
        [] for __ in range(object_shards)
    ]
    for triple in graph.match_ids(None, None, None):
        partitions[shard_of_subject(triple[0], shards)].append(triple)
        if object_shards:
            object_partitions[
                shard_of_object(triple[2], object_shards)
            ].append(triple)
    for shard, triples in enumerate(partitions):
        name = shard_filename(shard)
        checksums[name] = write_shard(
            os.path.join(directory, name), shard, triples
        )
    for shard, triples in enumerate(object_partitions):
        name = object_shard_filename(shard)
        checksums[name] = write_shard(
            os.path.join(directory, name), shard, triples
        )
    shard_triples = [len(triples) for triples in partitions]
    object_shard_triples = (
        [len(triples) for triples in object_partitions]
        if object_shards
        else None
    )
    term_count = len(terms)
    # Mining reads the written directory, not these in-heap copies.
    del terms, triples, partitions, object_partitions

    def manifest(resources: dict[str, str] | None = None) -> dict:
        return write_manifest(
            directory,
            shards,
            shard_triples,
            term_count,
            checksums,
            object_shard_triples=object_shard_triples,
            resources=resources,
        )

    start = time.perf_counter()
    resources = _ship_resources(directory, manifest()["fingerprint"])
    mine_s = time.perf_counter() - start
    return dict(manifest(resources), mine_s=mine_s)


def _ship_resources(directory: str, fingerprint: str) -> dict[str, str]:
    """Derive the KB's lookup indexes and the PATTY pattern store from the
    segment directory just written, and write them beside the shards;
    returns ``{file: body checksum}`` for the manifest.

    Both are mined over the segments, not over the source graph: the
    corpus generator draws templates from a seeded RNG in scan order, and
    only the segments' scan order is what a server mining at start-up
    would see.  The defaults are :meth:`QuestionAnsweringSystem.over`'s.
    """
    # Imported here: repro.patty and the KB builder import repro.kb.
    from repro.kb.builder import KnowledgeBase
    from repro.kb.schema import build_dbpedia_ontology
    from repro.patty.export import pattern_store_state
    from repro.patty.store import build_pattern_store

    backend = SegmentedBackend(directory).open()
    try:
        kb = KnowledgeBase.from_backend(build_dbpedia_ontology(), backend)
        store = pattern_store_state(build_pattern_store(kb))
        index = kb.index_ids()
    finally:
        backend.close()
    return {
        INDEX_RESOURCE: write_index(
            os.path.join(directory, INDEX_RESOURCE), fingerprint, **index
        ),
        PATTERNS_RESOURCE: write_resource(
            os.path.join(directory, PATTERNS_RESOURCE), PATTERNS_RESOURCE,
            fingerprint, store,
        ),
    }


def _check_layout(path: str, manifest: dict) -> None:
    """Refuse a manifest whose counts and file list disagree, or whose
    resource list is no ``{file: checksum}`` mapping.

    Scans route by the shard counts, so an edited count must fail at
    open rather than send a scan to the wrong shard or skip one.
    """
    shards = manifest.get("shards")
    object_shards = manifest.get("object_shards", 0)
    per_shard = manifest.get("shard_triples")
    if not (
        type(shards) is int and shards >= 1
        and type(object_shards) is int and object_shards >= 0
        and isinstance(per_shard, list) and len(per_shard) == shards
        and all(type(count) is int for count in per_shard)
        and manifest.get("triples") == sum(per_shard)
    ):
        raise SegmentIntegrityError(f"{path}: inconsistent manifest counts")
    expected = {"dictionary.bin"}
    expected.update(shard_filename(shard) for shard in range(shards))
    expected.update(
        object_shard_filename(shard) for shard in range(object_shards)
    )
    if set(manifest["files"]) != expected:
        raise SegmentIntegrityError(
            f"{path}: manifest lists {sorted(manifest['files'])}, expected "
            f"{sorted(expected)}"
        )
    resources = manifest.get("resources", {})
    if not (
        isinstance(resources, dict)
        and all(type(checksum) is str for checksum in resources.values())
    ):
        raise SegmentIntegrityError(f"{path}: corrupt manifest resource list")


class SegmentedBackend(KBBackend):
    """Out-of-core, read-only backend over a segment directory.

    Opening validates the manifest and the dictionary; shard files map
    lazily on first touch (their checksums validate then — a corrupted
    shard raises the typed
    :class:`~repro.kb.segment.SegmentIntegrityError` at first use, never
    silently returns wrong rows).  All scans are deterministic: per-shard
    runs are sorted by construction and multi-shard scans merge them
    under the pattern shape's order (:func:`~repro.kb.segment.scan_order`).

    Counters (``kb.segments.*`` — see docs/observability.md) land in the
    instance's :class:`~repro.obs.metrics.MetricsRegistry` (:attr:`perf`),
    which ``QuestionAnsweringSystem.metrics()`` merges, and surface
    through :meth:`stats`.
    """

    def __init__(
        self, path: str | os.PathLike, stats: MetricsRegistry | None = None
    ) -> None:
        self._path = os.fspath(path)
        self._stats = stats if stats is not None else MetricsRegistry()
        self._manifest: dict | None = None
        self._dictionary: SegmentDictionary | None = None
        self._shards: list[SegmentShard] = []
        self._object_shards: list[SegmentShard] = []
        self._index: SegmentIndex | None = None

    @property
    def path(self) -> str:
        return self._path

    @property
    def perf(self) -> MetricsRegistry:
        return self._stats

    # -- lifecycle -----------------------------------------------------

    def open(self) -> "SegmentedBackend":
        if self._manifest is not None:
            return self
        manifest = read_manifest(self._path)
        _check_layout(self._path, manifest)
        self._dictionary = SegmentDictionary(
            os.path.join(self._path, "dictionary.bin")
        )
        if len(self._dictionary) != manifest["terms"]:
            raise SegmentError(
                f"{self._path}: dictionary holds {len(self._dictionary)} "
                f"terms, manifest says {manifest['terms']}"
            )
        self._shards = [
            SegmentShard(os.path.join(self._path, shard_filename(shard)), shard)
            for shard in range(manifest["shards"])
        ]
        self._object_shards = [
            SegmentShard(
                os.path.join(self._path, object_shard_filename(shard)), shard
            )
            for shard in range(manifest.get("object_shards", 0))
        ]
        self._manifest = manifest
        self._stats.inc("kb.segments.opened")
        return self

    def close(self) -> None:
        for shard in self._shards:
            shard.close()
        self._shards = []
        for shard in self._object_shards:
            shard.close()
        self._object_shards = []
        if self._dictionary is not None:
            self._dictionary.close()
            self._dictionary = None
        if self._index is not None:
            self._index.close()
            self._index = None
        self._manifest = None

    def _require_open(self) -> dict:
        if self._manifest is None:
            self.open()
        return self._manifest  # type: ignore[return-value]

    # -- id-space core -------------------------------------------------

    @property
    def shard_count(self) -> int:
        return self._require_open()["shards"]

    @property
    def object_shard_count(self) -> int:
        """Size of the secondary object-hash partition (0 when the
        directory was written without one)."""
        return self._require_open().get("object_shards", 0)

    def shard(self, index: int) -> SegmentShard:
        self._require_open()
        return self._shards[index]

    def object_shard(self, index: int) -> SegmentShard:
        self._require_open()
        return self._object_shards[index]

    def _route(
        self, s: int | None, p: int | None, o: int | None
    ) -> SegmentShard | None:
        """The one shard that can match the pattern, or None when every
        subject shard must be scanned; counts the scan either way."""
        manifest = self._require_open()
        self._stats.inc("kb.segments.scans")
        if s is not None:
            # Subject-bound: the router pins the one shard that can match.
            self._stats.inc("kb.segments.single_shard_scans")
            return self._shards[shard_of_subject(s, manifest["shards"])]
        if o is not None and self._object_shards:
            # Object-bound, subject free: the secondary partition pins one
            # object shard.  Its run is sorted under the same shape order
            # and holds exactly the triples with this object, so it is
            # identical to the merged subject-shard scan.
            self._stats.inc("kb.segments.object_routed_scans")
            return self._object_shards[
                shard_of_object(o, len(self._object_shards))
            ]
        self._stats.inc("kb.segments.merged_scans")
        return None

    def scan(
        self, s: int | None, p: int | None, o: int | None
    ) -> Iterator[IdTriple]:
        if -1 in (s, p, o):
            return iter(())
        shard = self._route(s, p, o)
        if shard is not None:
            return shard.scan(s, p, o)
        streams = [shard.scan(s, p, o) for shard in self._shards]
        return heapq.merge(*streams, key=scan_order_key(s, p, o))

    def scan_columns(
        self, s: int | None, p: int | None, o: int | None
    ) -> tuple:
        """:meth:`scan`'s rows as three id columns, routed and counted
        exactly like :meth:`scan`.

        A routed scan is the shard's zero-copy slices (valid until
        :meth:`close`).  An unrouted scan concatenates every subject
        shard's run and restores :meth:`scan`'s global order with one
        stable sort on the shape's order (:func:`_merge_runs`).
        """
        if -1 in (s, p, o):
            return columns_of(())
        shard = self._route(s, p, o)
        if shard is not None:
            return shard.scan_columns(s, p, o)
        runs = [shard.scan_columns(s, p, o) for shard in self._shards]
        return _merge_runs(runs, s, p, o)

    def count(
        self, s: int | None = None, p: int | None = None, o: int | None = None
    ) -> int:
        if -1 in (s, p, o):
            return 0
        manifest = self._require_open()
        self._stats.inc("kb.segments.counts")
        if s is not None:
            shard = shard_of_subject(s, manifest["shards"])
            return self._shards[shard].count(s, p, o)
        if o is not None and self._object_shards:
            self._stats.inc("kb.segments.object_routed_counts")
            shard = shard_of_object(o, len(self._object_shards))
            return self._object_shards[shard].count(s, p, o)
        return sum(shard.count(s, p, o) for shard in self._shards)

    def lookup(self, term: Term) -> int:
        self._require_open()
        self._stats.inc("kb.segments.lookups")
        term_id = self._dictionary.lookup(term)  # type: ignore[union-attr]
        return -1 if term_id is None else term_id

    def decode(self, term_id: int) -> Term:
        self._require_open()
        return self._dictionary.decode(term_id)  # type: ignore[union-attr]

    @property
    def dictionary(self) -> SegmentDictionary:
        self._require_open()
        return self._dictionary  # type: ignore[return-value]

    @property
    def generation(self) -> int:
        """Segments are immutable: the generation is 0 forever, and the
        fingerprint (not the generation) carries content identity."""
        return 0

    def __len__(self) -> int:
        return self._require_open()["triples"]

    def shipped_index(self) -> SegmentIndex | None:
        """The KB lookup indexes the builder shipped in this directory,
        or None when the manifest does not list ``kb_index.bin`` (a
        directory written before they shipped, or as JSON).

        Nothing is read here: the file maps, and its header and body
        checksums validate, on the first lookup, which raises a typed
        :class:`~repro.kb.segment.SegmentError` for a listed file that
        is missing, corrupt or mined from other triples.
        """
        manifest = self._require_open()
        checksum = manifest.get("resources", {}).get(INDEX_RESOURCE)
        if checksum is None:
            return None
        if self._index is None:
            self._index = SegmentIndex(
                os.path.join(self._path, INDEX_RESOURCE), checksum,
                manifest["fingerprint"],
            )
        return self._index

    def shipped_resource(self, name: str, parse):
        """``parse(payload)`` of a resource the builder shipped in this
        directory, or None when the manifest lists no such resource (a
        directory written before resources shipped).

        The file is read, checksummed and parsed on every call, never by
        :meth:`open`.  A listed file that is missing, corrupt, mined from
        other triples or malformed raises a typed
        :class:`~repro.kb.segment.SegmentError`: no caller ever falls
        back to a rebuild over a damaged directory.
        """
        manifest = self._require_open()
        checksum = manifest.get("resources", {}).get(name)
        if checksum is None:
            return None
        path = os.path.join(self._path, name)
        payload = read_resource(path, name, checksum, manifest["fingerprint"])
        try:
            return parse(payload)
        except (KeyError, IndexError, TypeError, ValueError) as error:
            raise SegmentError(f"{path}: malformed resource: {error!r}") from None

    def distinct_ids(self, position: int) -> Iterator[int]:
        """Distinct subject/predicate/object ids, globally sorted."""
        self._require_open()
        streams = [shard.distinct_ids(position) for shard in self._shards]
        previous: int | None = None
        for value in heapq.merge(*streams):
            if value != previous:
                previous = value
                yield value

    # -- identity and observability -------------------------------------

    def fingerprint(self) -> dict:
        manifest = self._require_open()
        return {
            "kind": "segments",
            "schema": manifest["schema"],
            "shards": manifest["shards"],
            "object_shards": manifest.get("object_shards", 0),
            "triples": manifest["triples"],
            "content": manifest["fingerprint"],
        }

    def stats(self) -> dict:
        manifest = self._require_open()
        counters = self._stats.snapshot()["counters"]
        return {
            "kind": "segments",
            "path": self._path,
            "shards": manifest["shards"],
            "object_shards": manifest.get("object_shards", 0),
            "triples": manifest["triples"],
            "terms": manifest["terms"],
            "counters": {
                name: value
                for name, value in counters.items()
                if name.startswith("kb.segments.")
            },
        }

    # -- scatter-gather support -----------------------------------------

    def shard_view(self, index: int) -> BackendGraph:
        """A Graph-compatible view restricted to one shard (shared global
        dictionary) — what a scatter-gather shard task executes its plan
        against (:mod:`repro.sparql.scatter`)."""
        return BackendGraph(_SingleShardBackend(self, index))


def _merge_runs(runs: list, s: int | None, p: int | None, o: int | None):
    """One column scan from the shards' runs of one pattern shape, in the
    order ``heapq.merge`` of the shards' :meth:`SegmentShard.scan` yields.

    Every run is sorted under :func:`~repro.kb.segment.scan_order` and
    the runs are disjoint (a triple lives in one subject shard), so one
    stable sort of their concatenation on that order gives the same rows
    in the same order: ``numpy.lexsort`` when numpy imports, and without
    numpy ``heapq.merge`` over the runs.
    """
    np = _np
    if np is None:
        merged = heapq.merge(
            *(zip(*run) for run in runs), key=scan_order_key(s, p, o)
        )
        return columns_of(merged)
    columns = [
        np.concatenate(
            [np.frombuffer(run[position], dtype=np.int64) for run in runs]
        )
        for position in range(3)
    ]
    permutation = np.lexsort(
        [columns[position] for position in reversed(scan_order(s, p, o))]
    )
    return tuple(to_array(column[permutation]) for column in columns)


class _SingleShardBackend(KBBackend):
    """One subject shard of a :class:`SegmentedBackend` behind the same
    protocol.

    Shares the parent's (global-id) dictionary, so id-space plans and
    filter constants resolved against any view agree across shards.
    """

    def __init__(self, parent: SegmentedBackend, index: int) -> None:
        self._parent = parent
        self._index = index

    def _shard(self) -> SegmentShard:
        return self._parent.shard(self._index)

    def open(self) -> "_SingleShardBackend":
        self._parent.open()
        return self

    def close(self) -> None:  # the parent owns the mmap lifecycle
        pass

    def scan(
        self, s: int | None, p: int | None, o: int | None
    ) -> Iterator[IdTriple]:
        if -1 in (s, p, o):
            return iter(())
        return self._shard().scan(s, p, o)

    def scan_columns(
        self, s: int | None, p: int | None, o: int | None
    ) -> tuple:
        return self._shard().scan_columns(s, p, o)

    def count(
        self, s: int | None = None, p: int | None = None, o: int | None = None
    ) -> int:
        if -1 in (s, p, o):
            return 0
        return self._shard().count(s, p, o)

    def lookup(self, term: Term) -> int:
        return self._parent.lookup(term)

    def decode(self, term_id: int) -> Term:
        return self._parent.decode(term_id)

    @property
    def dictionary(self) -> SegmentDictionary:
        return self._parent.dictionary

    @property
    def generation(self) -> int:
        return 0

    def __len__(self) -> int:
        return len(self._shard())

    def fingerprint(self) -> dict:
        return dict(self._parent.fingerprint(), shard=self._index)

    def stats(self) -> dict:
        return {"kind": "segments.shard", "shard": self._index}
