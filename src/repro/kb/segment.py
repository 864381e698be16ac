"""On-disk KB segments: mmap-loaded sorted triple arrays + dictionary block.

A segment directory (written by :func:`repro.kb.shard.build_segments`)
holds one immutable, out-of-core copy of a graph, hash-partitioned by
subject id:

``manifest.json``
    Schema stamp (``repro.kbseg/v1``), shard count, per-shard triple
    counts, per-file SHA-256 checksums and the combined content
    fingerprint (what ``repro.snapshot/v1`` headers embed).

``dictionary.bin``
    The shared term dictionary: an offsets array into a canonical
    JSON-record payload (exact term round-trip), plus a sorted
    ``(hash64, id)`` index so :meth:`SegmentDictionary.lookup` is a
    binary search over mmapped arrays — no term->id dict is ever built
    in the heap.

``shard_NNN.seg``
    One shard's triples in three sorted orderings — SPO, POS and OSP —
    each as three parallel int64 columns.  The columns are
    ``array('q')``-compatible: readers cast the mmap to a ``'q'``
    memoryview and the columnar engine's batch operators consume the ids
    with zero copies.  Every bound-prefix pattern scan is a binary-search
    range narrowing; counts are range subtractions.

Every file carries a checksummed header; a corrupted or truncated file
raises the typed :class:`SegmentIntegrityError` at open time (fail fast,
never serve garbage), an unknown schema or a malformed file raises
:class:`SegmentError`.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import threading
from bisect import bisect_left, bisect_right
from functools import lru_cache
from typing import Iterator, Sequence

from repro.kb.backend import BackendError
from repro.rdf.terms import BNode, IRI, Literal, Term

#: Schema identifier stamped into the manifest and every segment header.
SEGMENT_SCHEMA = "repro.kbseg/v1"

_DICT_MAGIC = b"RKBDICT1\n"
_SHARD_MAGIC = b"RKBSEG1\n"
_WORD = 8  # int64 bytes

IdTriple = tuple[int, int, int]


class SegmentError(BackendError):
    """A segment file or directory is malformed or has the wrong schema."""


class SegmentIntegrityError(SegmentError):
    """A segment file failed checksum validation (corruption/truncation)."""


# ---------------------------------------------------------------------------
# Term records: canonical bytes for payload, hashing and round-trip
# ---------------------------------------------------------------------------


def encode_term(term: Term) -> bytes:
    """Canonical byte encoding of a term (exact round-trip, stable hash)."""
    if isinstance(term, IRI):
        record: list = ["i", term.value]
    elif isinstance(term, Literal):
        if term.language is not None:
            record = ["l", term.lexical, None, term.language]
        elif term.datatype is not None:
            record = ["l", term.lexical, term.datatype]
        else:
            record = ["l", term.lexical]
    elif isinstance(term, BNode):
        record = ["b", term.label]
    else:
        raise SegmentError(f"cannot serialize term {term!r}")
    return json.dumps(record, separators=(",", ":"), ensure_ascii=False).encode(
        "utf-8"
    )


def decode_term(record: bytes) -> Term:
    """Inverse of :func:`encode_term`."""
    try:
        decoded = json.loads(record.decode("utf-8"))
        kind = decoded[0]
        if kind == "i":
            return IRI(decoded[1])
        if kind == "l":
            datatype = decoded[2] if len(decoded) > 2 else None
            language = decoded[3] if len(decoded) > 3 else None
            return Literal(decoded[1], datatype=datatype, language=language)
        if kind == "b":
            return BNode(decoded[1])
    except (ValueError, IndexError, KeyError, UnicodeDecodeError) as error:
        raise SegmentError(f"corrupt term record: {error}") from None
    raise SegmentError(f"unknown term record kind {kind!r}")


def term_hash(record: bytes) -> int:
    """Signed 64-bit content hash of an encoded term record."""
    digest = hashlib.blake2b(record, digest_size=8).digest()
    return int.from_bytes(digest, "little", signed=True)


# ---------------------------------------------------------------------------
# File plumbing
# ---------------------------------------------------------------------------


def _write_with_header(path: str, magic: bytes, header: dict, body: bytes) -> str:
    """Write magic + JSON header line + body; returns the body's sha256."""
    checksum = hashlib.sha256(body).hexdigest()
    header = dict(header, schema=SEGMENT_SCHEMA, checksum=checksum)
    with open(path, "wb") as handle:
        handle.write(magic)
        handle.write(json.dumps(header, separators=(",", ":")).encode("utf-8"))
        handle.write(b"\n")
        handle.write(body)
    return checksum


class _MappedFile:
    """An open mmap with its parsed header and body view."""

    __slots__ = ("mm", "header", "body", "_file")

    def __init__(self, path: str, magic: bytes) -> None:
        self._file = open(path, "rb")
        try:
            self.mm = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:
            self._file.close()
            raise SegmentIntegrityError(f"{path}: empty segment file") from None
        try:
            if self.mm[: len(magic)] != magic:
                raise SegmentError(f"{path}: bad magic (not a segment file)")
            newline = self.mm.find(b"\n", len(magic))
            if newline < 0:
                raise SegmentIntegrityError(f"{path}: truncated header")
            try:
                self.header = json.loads(
                    self.mm[len(magic):newline].decode("utf-8")
                )
            except (json.JSONDecodeError, UnicodeDecodeError) as error:
                raise SegmentIntegrityError(
                    f"{path}: corrupt header: {error}"
                ) from None
            if self.header.get("schema") != SEGMENT_SCHEMA:
                raise SegmentError(
                    f"{path}: unknown segment schema "
                    f"{self.header.get('schema')!r} (expected {SEGMENT_SCHEMA!r})"
                )
            self.body = memoryview(self.mm)[newline + 1:]
            digest = hashlib.sha256(self.body).hexdigest()
            if digest != self.header.get("checksum"):
                raise SegmentIntegrityError(
                    f"{path}: body failed checksum validation"
                )
        except Exception:
            self.close()
            raise

    def close(self) -> None:
        body = getattr(self, "body", None)
        if body is not None:
            body.release()
            self.body = None
        if not self.mm.closed:
            self.mm.close()
        self._file.close()


# ---------------------------------------------------------------------------
# Dictionary block
# ---------------------------------------------------------------------------


def write_dictionary(path: str, terms: Sequence[Term]) -> str:
    """Serialize the full term dictionary (id order); returns the checksum."""
    from array import array

    records = [encode_term(term) for term in terms]
    offsets = array("q", [0])
    position = 0
    for record in records:
        position += len(record)
        offsets.append(position)
    pairs = sorted(
        (term_hash(record), term_id) for term_id, record in enumerate(records)
    )
    hashes = array("q", (h for h, __ in pairs))
    ids = array("q", (term_id for __, term_id in pairs))
    body = (
        offsets.tobytes() + hashes.tobytes() + ids.tobytes() + b"".join(records)
    )
    return _write_with_header(path, _DICT_MAGIC, {"terms": len(records)}, body)


class SegmentDictionary:
    """Read-only term dictionary over the mmapped ``dictionary.bin``.

    ``lookup`` binary-searches the sorted hash index and verifies the hit
    against the payload bytes (hash collisions are resolved exactly);
    ``decode`` slices the payload through an LRU cache.  Nothing term-sized
    is materialised in the heap beyond that cache.
    """

    def __init__(self, path: str, cache_size: int = 65536) -> None:
        self._path = path
        self._mapped = _MappedFile(path, _DICT_MAGIC)
        self._terms = int(self._mapped.header["terms"])
        body = self._mapped.body
        cursor = 0
        self._offsets = body[cursor:cursor + (self._terms + 1) * _WORD].cast("q")
        cursor += (self._terms + 1) * _WORD
        self._hashes = body[cursor:cursor + self._terms * _WORD].cast("q")
        cursor += self._terms * _WORD
        self._ids = body[cursor:cursor + self._terms * _WORD].cast("q")
        cursor += self._terms * _WORD
        self._payload = body[cursor:]
        if len(self._payload) != self._offsets[self._terms]:
            raise SegmentIntegrityError(
                f"{path}: dictionary payload length mismatch"
            )
        self._decode_cached = lru_cache(maxsize=cache_size)(self._decode_slice)

    def __len__(self) -> int:
        return self._terms

    def __contains__(self, term: Term) -> bool:
        return self.lookup(term) is not None

    def _record(self, term_id: int) -> bytes:
        return bytes(self._payload[self._offsets[term_id]:self._offsets[term_id + 1]])

    def _decode_slice(self, term_id: int) -> Term:
        return decode_term(self._record(term_id))

    def lookup(self, term: Term) -> int | None:
        """The id for ``term`` or None (:class:`~repro.rdf.TermDictionary`
        signature, so backend views can share calling code)."""
        record = encode_term(term)
        wanted = term_hash(record)
        index = bisect_left(self._hashes, wanted)
        while index < self._terms and self._hashes[index] == wanted:
            term_id = self._ids[index]
            if self._record(term_id) == record:
                return term_id
            index += 1
        return None

    def decode(self, term_id: int) -> Term:
        if not 0 <= term_id < self._terms:
            raise KeyError(f"no term with id {term_id}")
        return self._decode_cached(term_id)

    def close(self) -> None:
        for view in (self._offsets, self._hashes, self._ids, self._payload):
            view.release()
        self._mapped.close()


# ---------------------------------------------------------------------------
# Shard segments
# ---------------------------------------------------------------------------

#: Column permutations per ordering: position-in-tuple for stored columns.
_SPO, _POS, _OSP = 0, 1, 2


def write_shard(path: str, shard: int, triples: Sequence[IdTriple]) -> str:
    """Serialize one shard's triples (three sorted orderings); returns the
    body checksum."""
    from array import array

    spo = sorted(triples)
    pos = sorted(triples, key=lambda t: (t[1], t[2], t[0]))
    osp = sorted(triples, key=lambda t: (t[2], t[0], t[1]))
    columns: list[bytes] = []
    for ordering, permutation in (
        (spo, (0, 1, 2)),
        (pos, (1, 2, 0)),
        (osp, (2, 0, 1)),
    ):
        for position in permutation:
            columns.append(
                array("q", (triple[position] for triple in ordering)).tobytes()
            )
    return _write_with_header(
        path, _SHARD_MAGIC, {"shard": shard, "triples": len(triples)},
        b"".join(columns),
    )


class SegmentShard:
    """One mmap-loaded shard: sorted SPO/POS/OSP column views + scans.

    Opened lazily (the first scan or count maps the file and validates the
    checksum — once, however many threads touch the shard first); every
    pattern scan narrows a binary-search range over the ordering that
    serves the bound prefix, mirroring the in-memory graph's index choice
    table (:mod:`repro.rdf.graph`):

    ====================  =========  =================
    bound slots           ordering   emit order
    ====================  =========  =================
    s / s,p / s,p,o       SPO        (s, p, o)
    p / p,o               POS        (p, o, s)
    o / o,s               OSP        (o, s, p)
    (none)                SPO        (s, p, o)
    ====================  =========  =================

    The emit order depends only on the pattern *shape*, so equal-shaped
    scans of different shards merge into one globally sorted stream
    (:func:`scan_order_key`).
    """

    __slots__ = ("_path", "_shard", "_mapped", "_triples", "_cols", "_lock")

    def __init__(self, path: str, shard: int) -> None:
        self._path = path
        self._shard = shard
        self._mapped: _MappedFile | None = None
        self._triples = -1
        self._cols: dict[int, tuple] = {}
        self._lock = threading.Lock()

    @property
    def path(self) -> str:
        return self._path

    def open(self) -> "SegmentShard":
        # scan/count call this on every use: once mapped, it is one
        # attribute check and no lock.
        if self._mapped is not None:
            return self
        with self._lock:
            if self._mapped is None:
                self._map()
        return self

    def _map(self) -> None:
        mapped = _MappedFile(self._path, _SHARD_MAGIC)
        try:
            if mapped.header.get("shard") != self._shard:
                raise SegmentError(
                    f"{self._path}: header names shard "
                    f"{mapped.header.get('shard')}, expected {self._shard}"
                )
            triples = int(mapped.header["triples"])
            if len(mapped.body) != 9 * triples * _WORD:
                raise SegmentIntegrityError(
                    f"{self._path}: body holds {len(mapped.body)} bytes, "
                    f"expected {9 * triples * _WORD}"
                )
        except Exception:
            mapped.close()
            raise
        whole = mapped.body.cast("q")
        cols: dict[int, tuple] = {}
        for block, ordering in enumerate((_SPO, _POS, _OSP)):
            base = block * 3 * triples
            cols[ordering] = tuple(
                whole[base + column * triples: base + (column + 1) * triples]
                for column in range(3)
            )
        self._triples = triples
        self._cols = cols
        # Published last: a thread that passes the unlocked check in
        # open() must find the columns already filled.
        self._mapped = mapped

    def close(self) -> None:
        with self._lock:
            if self._mapped is None:
                return
            self._cols = {}
            self._mapped.close()
            self._mapped = None

    def __len__(self) -> int:
        self.open()
        return self._triples

    # -- range narrowing -----------------------------------------------

    @staticmethod
    def _narrow(column, value: int, lo: int, hi: int) -> tuple[int, int]:
        return (
            bisect_left(column, value, lo, hi),
            bisect_right(column, value, lo, hi),
        )

    def _range(
        self, ordering: int, first: int | None, second: int | None,
        third: int | None = None,
    ) -> tuple[int, int]:
        """The [lo, hi) row range matching a bound prefix of an ordering."""
        a, b, c = self._cols[ordering]
        lo, hi = 0, self._triples
        if first is not None:
            lo, hi = self._narrow(a, first, lo, hi)
            if second is not None and lo < hi:
                lo, hi = self._narrow(b, second, lo, hi)
                if third is not None and lo < hi:
                    lo, hi = self._narrow(c, third, lo, hi)
        return lo, hi

    # -- protocol core ---------------------------------------------------

    def scan(
        self, s: int | None, p: int | None, o: int | None
    ) -> Iterator[IdTriple]:
        """Iterate matching (s, p, o) id triples in the serving ordering."""
        if -1 in (s, p, o):
            return
        self.open()
        if s is not None and (p is not None or o is None):
            cs, cp, co = self._cols[_SPO]
            lo, hi = self._range(_SPO, s, p, o)
            for index in range(lo, hi):
                yield (cs[index], cp[index], co[index])
        elif o is not None and p is None:
            # (o) or (o, s) bound: OSP serves both without post-filtering.
            co, cs, cp = self._cols[_OSP]
            lo, hi = self._range(_OSP, o, s)
            for index in range(lo, hi):
                yield (cs[index], cp[index], co[index])
        elif p is not None:
            cp, co, cs = self._cols[_POS]
            lo, hi = self._range(_POS, p, o)
            for index in range(lo, hi):
                yield (cs[index], cp[index], co[index])
        else:
            cs, cp, co = self._cols[_SPO]
            for index in range(self._triples):
                yield (cs[index], cp[index], co[index])

    def scan_columns(
        self, s: int | None, p: int | None, o: int | None
    ):
        """The matching rows as three zero-copy ``'q'`` memoryview columns
        in (s, p, o) position order — the ``array('q')`` form the columnar
        batch operators consume directly.

        Only bound-prefix patterns are contiguous in one ordering; a
        pattern needing post-filtering (``(s, None, o)``) returns None and
        callers fall back to :meth:`scan`.
        """
        if -1 in (s, p, o):
            return None
        self.open()
        if s is not None and (p is not None or o is None):
            cs, cp, co = self._cols[_SPO]
            lo, hi = self._range(_SPO, s, p, o)
        elif o is not None and s is None and p is None:
            co, cs, cp = self._cols[_OSP]
            lo, hi = self._range(_OSP, o, None)
        elif p is not None and s is None:
            cp, co, cs = self._cols[_POS]
            lo, hi = self._range(_POS, p, o)
        elif s is None and p is None and o is None:
            cs, cp, co = self._cols[_SPO]
            lo, hi = 0, self._triples
        else:
            return None
        return (cs[lo:hi], cp[lo:hi], co[lo:hi])

    def count(
        self, s: int | None = None, p: int | None = None, o: int | None = None
    ) -> int:
        """Exact match count by range subtraction (no enumeration)."""
        if -1 in (s, p, o):
            return 0
        self.open()
        if s is None and p is None and o is None:
            return self._triples
        if s is not None and (p is not None or o is None):
            lo, hi = self._range(_SPO, s, p, o)
        elif o is not None and p is None:
            lo, hi = self._range(_OSP, o, s)
        else:
            lo, hi = self._range(_POS, p, o)
        return hi - lo

    def distinct_ids(self, position: int) -> Iterator[int]:
        """Distinct subject (0) / predicate (1) / object (2) ids, sorted."""
        self.open()
        ordering = (_SPO, _POS, _OSP)[position]
        column = self._cols[ordering][0]
        previous: int | None = None
        for index in range(self._triples):
            value = column[index]
            if value != previous:
                previous = value
                yield value


def scan_order_key(s: int | None, p: int | None, o: int | None):
    """The sort key of :meth:`SegmentShard.scan` output for a pattern shape.

    Equal-shaped scans of every shard are sorted under this key, which is
    what lets :class:`repro.kb.shard.SegmentedBackend` heap-merge per-shard
    streams into one globally sorted, deterministic scan.
    """
    if s is not None and (p is not None or o is None):
        return None  # natural (s, p, o) tuple order
    if o is not None and p is None:
        return lambda triple: (triple[2], triple[0], triple[1])
    if p is not None:
        return lambda triple: (triple[1], triple[2], triple[0])
    return None


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------


def write_manifest(
    directory: str,
    shards: int,
    shard_triples: Sequence[int],
    terms: int,
    checksums: dict[str, str],
    object_shard_triples: Sequence[int] | None = None,
) -> dict:
    """Write ``manifest.json``; returns the manifest dict.

    ``object_shard_triples`` describes the optional secondary object-hash
    partition (same triples, repartitioned — it does not contribute to the
    ``triples`` total).  The keys are additive so directories written
    without the secondary partition keep the same schema and stay
    readable.
    """
    fingerprint = hashlib.sha256(
        json.dumps(
            {"checksums": dict(sorted(checksums.items())), "terms": terms},
            separators=(",", ":"), sort_keys=True,
        ).encode("utf-8")
    ).hexdigest()
    manifest = {
        "schema": SEGMENT_SCHEMA,
        "shards": shards,
        "triples": sum(shard_triples),
        "shard_triples": list(shard_triples),
        "terms": terms,
        "files": checksums,
        "fingerprint": fingerprint,
    }
    if object_shard_triples is not None:
        manifest["object_shards"] = len(object_shard_triples)
        manifest["object_shard_triples"] = list(object_shard_triples)
    path = os.path.join(directory, "manifest.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return manifest


def read_manifest(directory: str) -> dict:
    """Load and validate ``manifest.json`` from a segment directory."""
    path = os.path.join(directory, "manifest.json")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except OSError as error:
        raise SegmentError(f"unreadable segment manifest: {error}") from None
    except json.JSONDecodeError as error:
        raise SegmentIntegrityError(
            f"{path}: corrupt manifest: {error}"
        ) from None
    if manifest.get("schema") != SEGMENT_SCHEMA:
        raise SegmentError(
            f"{path}: unknown segment schema {manifest.get('schema')!r} "
            f"(expected {SEGMENT_SCHEMA!r})"
        )
    for name in manifest.get("files", ()):
        if not os.path.exists(os.path.join(directory, name)):
            raise SegmentError(f"{directory}: missing segment file {name}")
    return manifest
