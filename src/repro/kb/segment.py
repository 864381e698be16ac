"""On-disk KB segments: mmap-loaded sorted triple arrays + dictionary block.

A segment directory (written by :func:`repro.kb.shard.build_segments`)
holds one immutable, out-of-core copy of a graph, hash-partitioned by
subject id:

``manifest.json``
    Schema stamp (``repro.kbseg/v1``), shard count, per-shard triple
    counts, per-file SHA-256 checksums and the combined content
    fingerprint (what ``repro.snapshot/v1`` headers embed).

``dictionary.bin``
    The shared term dictionary.  Its header names the term count
    (``terms``, *n*) and the order-key version of its rank column
    (``order``, e.g. ``repro.order/v1``); its body holds, in order, five
    regions of int64 words and bytes:

    * ``offsets`` — *n* + 1 offsets into the payload;
    * the sorted ``(hash64, id)`` index as two columns of *n* words, so
      :meth:`SegmentDictionary.lookup` is a binary search over mmapped
      arrays — no term->id dict is ever built in the heap;
    * the rank column — *n* words, each term's dense position under
      :func:`repro.rdf.order.order_key` (equal keys share a rank), which
      the columnar engine gathers to sort ORDER BY keys, and to test
      range FILTERs against a number or date, without decoding a term;
    * the payload — canonical JSON records (exact term round-trip).

    A file without the ``order`` key (written before ranks shipped) has
    no rank column and still opens; a file whose ``order`` names another
    version keeps its column unread.  Either way ORDER BY ranks locally.

``shard_NNN.seg``
    One shard's triples in three sorted orderings — SPO, POS and OSP —
    each as three parallel int64 columns.  The columns are
    ``array('q')``-compatible: readers cast the mmap to a ``'q'``
    memoryview, and a pattern scan hands the columnar engine's batch
    operators its range as zero-copy column slices
    (:meth:`SegmentShard.scan_columns`).  Every pattern scan is a
    binary-search range narrowing over the ordering its shape selects
    (:func:`scan_order`); counts are range subtractions.

``kb_index.bin``
    The KB's lookup indexes, derived from the triples when the directory
    is built: surface forms, primary labels, the entity-type closure and
    the page links, as int64 id columns (entities are dictionary ids).
    Its header names the region counts, ``max_words`` (the longest form,
    in words) and the content fingerprint the index was mined from
    (``mined_from``); the body repeats the counts in its first region, so
    an edited header count fails.  Then come, in order:

    * the forms: a ``(hash64, form)`` index sorted by hash and then form
      bytes (:func:`form_hash`; a hit is verified against the form bytes,
      as :meth:`SegmentDictionary.lookup` verifies a term), each form's
      candidate offsets and candidate ids, in insertion order;
    * the sorted hashes of every form's first word (a spotting prune: a
      collision costs one more lookup, never a different match);
    * the nodes: every entity id with a label, a type or a page link,
      sorted, with offsets into the labels, the type ids (indexes into
      the class-name table), the out-link ids and the in-link ids (each
      node's links sorted by id, both directions written at build time);
    * the class-name offsets, then three byte payloads: the forms, the
      labels and the class names (UTF-8).

    :class:`SegmentIndex` maps the file and checks its body's SHA-256
    once, on first touch, like a shard.

``patty_store.res``
    The mined PATTY pattern store, derived from the triples when the
    directory is built.  Its body is JSON (a directory is input from
    outside the program, so nothing is unpickled).

Both resources name the content fingerprint they were mined from and are
listed under the manifest's additive ``resources`` key.  Opening a
directory never reads them; the KB and the QA system read them on demand
(:class:`SegmentIndex`, :func:`read_resource`), and a directory whose
manifest does not list them rebuilds them from the triples instead.

Every file carries a checksummed header; a corrupted or truncated file
raises the typed :class:`SegmentIntegrityError` when it is read (fail
fast, never serve garbage), an unknown schema or a malformed file raises
:class:`SegmentError`.  The body checksums cover every region, the rank
column included; the manifest's counts and file list must agree with
each other when a directory opens.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import re
import threading
from array import array
from bisect import bisect_left, bisect_right
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

try:  # optional: builds the rank representatives; a python loop without it
    import numpy as _np  # type: ignore
except ImportError:  # pragma: no cover - exercised via monkeypatch in tests
    _np = None

from repro.kb.backend import BackendError, columns_of, to_array
from repro.rdf.order import ORDER_VERSION, order_key, order_ranks
from repro.rdf.terms import BNode, IRI, Literal, Term

#: Schema identifier stamped into the manifest and every segment header.
SEGMENT_SCHEMA = "repro.kbseg/v1"

_DICT_MAGIC = b"RKBDICT1\n"
_SHARD_MAGIC = b"RKBSEG1\n"
_RESOURCE_MAGIC = b"RKBRES1\n"
_INDEX_MAGIC = b"RKBIDX1\n"
_WORD = 8  # int64 bytes

IdTriple = tuple[int, int, int]

#: The derived resources :func:`repro.kb.shard.build_segments` ships
#: beside the shards (file names; the manifest's ``resources`` keys).
INDEX_RESOURCE = "kb_index.bin"
PATTERNS_RESOURCE = "patty_store.res"


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


#: An IRI record whose value needs no JSON unescaping: no quote, no
#: backslash and no control character between the quotes.
_PLAIN_IRI = re.compile(rb'\["i","([^"\\\x00-\x1f]*)"\]')


def plain_iri_value(record: bytes) -> str | None:
    """The value of an IRI record that decodes by slicing, or None.

    :func:`encode_term` escapes every quote, backslash and control
    character of a value, so the common record ``["i","…"]`` holds none
    of them and its value is the bytes between the quotes; ``json.loads``
    would return the same string.  Any other record gives None.
    """
    plain = _PLAIN_IRI.fullmatch(record)
    return None if plain is None else plain.group(1).decode("utf-8")


def decode_term(record: bytes) -> Term:
    """Inverse of :func:`encode_term`.  The common IRI record decodes by
    slicing (:func:`plain_iri_value`), every other one through JSON."""
    try:
        value = plain_iri_value(record)
        if value is not None:
            return IRI(value)
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


def form_hash(text: str) -> int:
    """Signed 64-bit hash of a surface form or word (its UTF-8 bytes),
    as the index file's form and first-word columns store it."""
    return term_hash(text.encode("utf-8"))


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


def _split_header(path: str, data, magic: bytes) -> tuple[dict, int]:
    """Check a file's magic and parse its JSON header line; returns the
    header and the offset where the body starts."""
    if data[: len(magic)] != magic:
        raise SegmentError(f"{path}: bad magic (not a segment file)")
    newline = data.find(b"\n", len(magic))
    if newline < 0:
        raise SegmentIntegrityError(f"{path}: truncated header")
    try:
        header = json.loads(bytes(data[len(magic):newline]).decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise SegmentIntegrityError(f"{path}: corrupt header: {error}") from None
    if not isinstance(header, dict):
        raise SegmentIntegrityError(f"{path}: corrupt header")
    if header.get("schema") != SEGMENT_SCHEMA:
        raise SegmentError(
            f"{path}: unknown segment schema "
            f"{header.get('schema')!r} (expected {SEGMENT_SCHEMA!r})"
        )
    return header, newline + 1


def _header_count(path: str, header: dict, key: str) -> int:
    """A non-negative integer header field, or a typed error."""
    value = header.get(key)
    if type(value) is not int or value < 0:
        raise SegmentIntegrityError(f"{path}: corrupt header field {key!r}")
    return value


def _byte_column(records: Sequence[bytes]) -> tuple[array, bytes]:
    """Offsets (one more than ``records``) and the records concatenated."""
    offsets = array("q", [0])
    position = 0
    for record in records:
        position += len(record)
        offsets.append(position)
    return offsets, b"".join(records)


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
            self.header, start = _split_header(path, self.mm, magic)
            self.body = memoryview(self.mm)[start:]
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
    """Serialize the full term dictionary (id order); returns the checksum.

    Besides the records and the lookup index, the body carries each
    term's order rank (:func:`repro.rdf.order.order_ranks`), so the
    columnar engine sorts ORDER BY keys without decoding a term.
    """
    records = [encode_term(term) for term in terms]
    offsets, payload = _byte_column(records)
    pairs = sorted(
        (term_hash(record), term_id) for term_id, record in enumerate(records)
    )
    hashes = array("q", (h for h, __ in pairs))
    ids = array("q", (term_id for __, term_id in pairs))
    ranks = array("q", order_ranks(terms))
    body = (
        offsets.tobytes() + hashes.tobytes() + ids.tobytes() + ranks.tobytes()
        + payload
    )
    return _write_with_header(
        path, _DICT_MAGIC, {"terms": len(records), "order": ORDER_VERSION},
        body,
    )


class SegmentDictionary:
    """Read-only term dictionary over the mmapped ``dictionary.bin``.

    ``lookup`` binary-searches the sorted hash index and verifies the hit
    against the payload bytes (hash collisions are resolved exactly);
    ``decode`` slices the payload through an LRU cache.  Nothing term-sized
    is materialised in the heap beyond that cache.

    ``order_ranks`` is the shipped rank column as a zero-copy ``'q'``
    view (``order_ranks[id]`` is the term's order rank), or None when the
    file has no column (written before ranks shipped) or its ``order``
    header names another key version than :data:`ORDER_VERSION`.
    :meth:`first_rank` finds where an order key falls among the ranks —
    the bounds of a range FILTER's interval.  Its search reads one
    representative id per rank, a heap column built on the first call
    (O(terms), vectorized when numpy imports); threads that race to
    build it build the same column.
    """

    def __init__(self, path: str, cache_size: int = 65536) -> None:
        self._path = path
        self._mapped = _MappedFile(path, _DICT_MAGIC)
        try:
            self._terms = _header_count(path, self._mapped.header, "terms")
            # The ``order`` key marks the rank column's presence; only a
            # column built under this module's key version is served.
            has_ranks = "order" in self._mapped.header
            body = self._mapped.body
            words = 3 * self._terms + 1 + (self._terms if has_ranks else 0)
            if len(body) < words * _WORD:
                raise SegmentIntegrityError(
                    f"{path}: dictionary body too short for "
                    f"{self._terms} terms"
                )
        except Exception:
            self._mapped.close()
            raise
        cursor = 0
        self._offsets = body[cursor:cursor + (self._terms + 1) * _WORD].cast("q")
        cursor += (self._terms + 1) * _WORD
        self._hashes = body[cursor:cursor + self._terms * _WORD].cast("q")
        cursor += self._terms * _WORD
        self._ids = body[cursor:cursor + self._terms * _WORD].cast("q")
        cursor += self._terms * _WORD
        self._ranks = self.order_ranks = None
        if has_ranks:
            self._ranks = body[cursor:cursor + self._terms * _WORD].cast("q")
            cursor += self._terms * _WORD
            if self._mapped.header["order"] == ORDER_VERSION:
                self.order_ranks = self._ranks
        self._payload = body[cursor:]
        if len(self._payload) != self._offsets[self._terms]:
            self.close()
            raise SegmentIntegrityError(
                f"{path}: dictionary payload length mismatch"
            )
        self._decode_cached = lru_cache(maxsize=cache_size)(self._decode_slice)
        self._representatives: array | None = None

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

    def first_rank(self, key: tuple, above: bool = False) -> int:
        """The first order rank whose key is not below ``key`` — or, with
        ``above``, is above it; one past the last rank when none is.

        ``key`` is an :func:`~repro.rdf.order.order_key`, or a bare
        ``(kind,)``, which sorts before every key of that kind.  A binary
        search over one representative id per rank: it decodes about
        log2(terms) ids.
        """
        representatives = self._rank_representatives()
        search = bisect_right if above else bisect_left
        return search(
            range(len(representatives)), key,
            key=lambda rank: order_key(self.decode(representatives[rank])),
        )

    def _rank_representatives(self) -> array:
        """``representatives[rank]`` is one term id of that rank."""
        representatives = self._representatives
        if representatives is not None:
            return representatives
        ranks = self.order_ranks
        if ranks is None:
            raise SegmentError(f"{self._path}: the dictionary ships no ranks")
        # A valid column is dense: its ranks are exactly 0..max, max < n.
        count = len(ranks)
        np = _np
        if np is not None:
            column = np.frombuffer(ranks, dtype=np.int64)
            valid = not count or (column.min() >= 0 and column.max() < count)
            if valid:
                built = np.full(
                    int(column.max()) + 1 if count else 0, -1, dtype=np.int64
                )
                built[column] = np.arange(count, dtype=np.int64)
                valid = not (built < 0).any()
                representatives = to_array(built)
        else:
            valid = not count or (min(ranks) >= 0 and max(ranks) < count)
            if valid:
                representatives = (
                    array("q", [-1]) * (max(ranks, default=-1) + 1)
                )
                for term_id, rank in enumerate(ranks):
                    representatives[rank] = term_id
                valid = -1 not in representatives
        if not valid:
            raise SegmentIntegrityError(f"{self._path}: order ranks not dense")
        self._representatives = representatives
        return representatives

    def close(self) -> None:
        self.order_ranks = None
        for view in (
            self._offsets, self._hashes, self._ids, self._ranks, self._payload
        ):
            if view is not None:
                view.release()
        self._mapped.close()


# ---------------------------------------------------------------------------
# Shard segments
# ---------------------------------------------------------------------------

#: The three stored orderings: the (s, p, o) positions their columns
#: hold, most significant first.
_SPO, _POS, _OSP = (0, 1, 2), (1, 2, 0), (2, 0, 1)


def scan_order(
    s: int | None, p: int | None, o: int | None
) -> tuple[int, int, int]:
    """The ordering that serves a pattern shape: the stored ordering led
    by exactly the bound positions, mirroring the in-memory graph's index
    choice table (:mod:`repro.rdf.graph`).

    ====================  =========
    bound slots           ordering
    ====================  =========
    s / s,p / s,p,o       SPO
    p / p,o               POS
    o / o,s               OSP
    (none)                SPO
    ====================  =========

    A shard scan emits its rows sorted under this ordering, which depends
    only on the pattern *shape*: equal-shaped scans of every shard sort
    the same way, so they merge into one globally sorted scan
    (:func:`scan_order_key`, and the column sort of
    :meth:`repro.kb.shard.SegmentedBackend.scan_columns`).
    """
    if s is not None and (p is not None or o is None):
        return _SPO
    if o is not None and p is None:
        return _OSP
    if p is not None:
        return _POS
    return _SPO


def scan_order_key(s: int | None, p: int | None, o: int | None):
    """The sort key of :meth:`SegmentShard.scan` output for a pattern
    shape (:func:`scan_order`); None for the natural (s, p, o) order."""
    ordering = scan_order(s, p, o)
    return None if ordering == _SPO else itemgetter(*ordering)


def write_shard(path: str, shard: int, triples: Sequence[IdTriple]) -> str:
    """Serialize one shard's triples (three sorted orderings); returns the
    body checksum."""
    columns: list[bytes] = []
    for ordering in (_SPO, _POS, _OSP):
        rows = sorted(triples, key=itemgetter(*ordering))
        for position in ordering:
            columns.append(
                array("q", (triple[position] for triple in rows)).tobytes()
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
    serves the pattern's shape (:func:`scan_order`).  The range is served
    as three zero-copy column slices (:meth:`scan_columns`, what the batch
    join operators read) or as id triples (:meth:`scan`, in the same
    order); counts are range subtractions.
    """

    __slots__ = ("_path", "_shard", "_mapped", "_triples", "_cols", "_lock")

    def __init__(self, path: str, shard: int) -> None:
        self._path = path
        self._shard = shard
        self._mapped: _MappedFile | None = None
        self._triples = -1
        self._cols: dict[tuple[int, int, int], tuple] = {}
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
            triples = _header_count(self._path, mapped.header, "triples")
            if len(mapped.body) != 9 * triples * _WORD:
                raise SegmentIntegrityError(
                    f"{self._path}: body holds {len(mapped.body)} bytes, "
                    f"expected {9 * triples * _WORD}"
                )
        except Exception:
            mapped.close()
            raise
        whole = mapped.body.cast("q")
        cols: dict[tuple[int, int, int], tuple] = {}
        for block, ordering in enumerate((_SPO, _POS, _OSP)):
            base = block * 3 * triples
            stored = [
                whole[base + column * triples: base + (column + 1) * triples]
                for column in range(3)
            ]
            # Kept in (s, p, o) position order, whatever the stored order.
            cols[ordering] = tuple(
                stored[ordering.index(position)] for position in range(3)
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

    def _range(
        self, s: int | None, p: int | None, o: int | None
    ) -> tuple[tuple, int, int]:
        """The ordering that serves the pattern's shape
        (:func:`scan_order`) as its (s, p, o) columns, and the [lo, hi)
        row range of it matching the pattern's bound positions, which
        lead the ordering."""
        self.open()
        ordering = scan_order(s, p, o)
        columns = self._cols[ordering]
        bound = (s, p, o)
        lo, hi = 0, self._triples
        for position in ordering:
            value = bound[position]
            if value is None or lo == hi:
                break
            column = columns[position]
            lo, hi = (
                bisect_left(column, value, lo, hi),
                bisect_right(column, value, lo, hi),
            )
        return columns, lo, hi

    # -- protocol core ---------------------------------------------------

    def scan_columns(
        self, s: int | None, p: int | None, o: int | None
    ) -> tuple:
        """The matching rows as three ``'q'`` columns in (s, p, o) position
        order, sorted under :func:`scan_order`: zero-copy slices of the
        mapping, valid until the shard closes.  A caller that keeps a
        column copies it (:func:`repro.kb.backend.to_array`)."""
        if -1 in (s, p, o):
            return columns_of(())
        (s_column, p_column, o_column), lo, hi = self._range(s, p, o)
        return s_column[lo:hi], p_column[lo:hi], o_column[lo:hi]

    def scan(
        self, s: int | None, p: int | None, o: int | None
    ) -> Iterator[IdTriple]:
        """Iterate matching (s, p, o) id triples, in :meth:`scan_columns`
        order."""
        if -1 in (s, p, o):
            return
        # Indexes the columns in place: the row carrier's point lookups
        # would pay three slices for one or two rows.
        (s_column, p_column, o_column), lo, hi = self._range(s, p, o)
        for index in range(lo, hi):
            yield (s_column[index], p_column[index], o_column[index])

    def count(
        self, s: int | None = None, p: int | None = None, o: int | None = None
    ) -> int:
        """Exact match count by range subtraction (no enumeration)."""
        if -1 in (s, p, o):
            return 0
        __, lo, hi = self._range(s, p, o)
        return hi - lo

    def distinct_ids(self, position: int) -> Iterator[int]:
        """Distinct subject (0) / predicate (1) / object (2) ids, sorted."""
        self.open()
        column = self._cols[(_SPO, _POS, _OSP)[position]][position]
        previous: int | None = None
        for index in range(self._triples):
            value = column[index]
            if value != previous:
                previous = value
                yield value


# ---------------------------------------------------------------------------
# Derived resources
# ---------------------------------------------------------------------------


#: The index file's region counts, in the order the body repeats them.
_INDEX_COUNTS = (
    "forms", "candidates", "first_words", "max_words", "nodes", "classes",
    "types", "links",
)


def _utf8_column(texts: Sequence[str]) -> tuple[array, bytes]:
    """Offsets (one more than ``texts``) and the concatenated UTF-8."""
    return _byte_column([text.encode("utf-8") for text in texts])


def _offsets_and_ids(groups: Sequence[Sequence[int]]) -> tuple[array, array]:
    """Offsets (one more than ``groups``) and the concatenated ids."""
    offsets = array("q", [0])
    ids = array("q")
    for group in groups:
        ids.extend(group)
        offsets.append(len(ids))
    return offsets, ids


def write_index(
    path: str,
    mined_from: str,
    forms: dict[str, Sequence[int]],
    labels: dict[int, str],
    max_words: int,
    types: dict[int, Iterable[str]],
    links: dict[int, Iterable[int]],
) -> str:
    """Serialize the KB's lookup indexes as id columns (layout in the
    module docstring); returns the body checksum.

    ``forms`` maps each normalised surface form to its candidates' ids
    in insertion order, ``labels`` an entity id to its primary label,
    ``types`` an entity id to its class names and ``links`` a page id to
    the ids it links to.  Each node's links are written sorted by id in
    both directions, and its types by class name.
    """
    ordered = sorted(forms, key=lambda form: (form_hash(form), form.encode()))
    form_offsets, form_bytes = _utf8_column(ordered)
    candidate_offsets, candidate_ids = _offsets_and_ids(
        [forms[form] for form in ordered]
    )
    first_words = array("q", sorted(
        {form_hash(form.partition(" ")[0]) for form in forms}
    ))
    classes = sorted({name for names in types.values() for name in names})
    class_index = {name: index for index, name in enumerate(classes)}
    class_offsets, class_bytes = _utf8_column(classes)
    incoming: dict[int, list[int]] = {}
    for source, targets in links.items():
        for target in targets:
            incoming.setdefault(target, []).append(source)
    nodes = sorted({*labels, *types, *links, *incoming})
    label_offsets, label_bytes = _utf8_column(
        [labels.get(node, "") for node in nodes]
    )
    type_offsets, type_ids = _offsets_and_ids(
        [sorted(class_index[name] for name in types.get(node, ()))
         for node in nodes]
    )
    out_offsets, out_ids = _offsets_and_ids(
        [sorted(links.get(node, ())) for node in nodes]
    )
    in_offsets, in_ids = _offsets_and_ids(
        [sorted(incoming.get(node, ())) for node in nodes]
    )
    counts = {
        "forms": len(ordered), "candidates": len(candidate_ids),
        "first_words": len(first_words), "max_words": max_words,
        "nodes": len(nodes), "classes": len(classes),
        "types": len(type_ids), "links": len(out_ids),
    }
    columns = (
        array("q", [counts[key] for key in _INDEX_COUNTS]),
        array("q", (form_hash(form) for form in ordered)),
        form_offsets, candidate_offsets, candidate_ids, first_words,
        array("q", nodes), label_offsets, type_offsets, type_ids,
        out_offsets, out_ids, in_offsets, in_ids, class_offsets,
    )
    body = b"".join(column.tobytes() for column in columns)
    return _write_with_header(
        path, _INDEX_MAGIC,
        dict(counts, resource=INDEX_RESOURCE, mined_from=mined_from),
        body + form_bytes + label_bytes + class_bytes,
    )


class SegmentIndex:
    """Read-only KB lookup indexes over the mmapped ``kb_index.bin``.

    Lookups speak ids: a form's candidate ids, an entity's label, class
    names and link ids.  Decoding them into terms, and remembering what
    was decoded, is the caller's (:mod:`repro.kb.shipped`).  The file
    maps lazily: the first lookup checks the header against the
    manifest's ``checksum`` and fingerprint (``mined_from``) and the body
    against its SHA-256 — once, however many threads touch it first.
    """

    def __init__(self, path: str, checksum: str, mined_from: str) -> None:
        self._path = path
        self._checksum = checksum
        self._mined_from = mined_from
        self._mapped: _MappedFile | None = None
        self._lock = threading.Lock()

    def open(self) -> "SegmentIndex":
        if self._mapped is not None:
            return self
        with self._lock:
            if self._mapped is None:
                self._map()
        return self

    def _map(self) -> None:
        path = self._path
        try:
            mapped = _MappedFile(path, _INDEX_MAGIC)
        except OSError as error:
            raise SegmentError(f"unreadable resource file: {error}") from None
        views: list[memoryview] = []
        try:
            header = mapped.header
            if header.get("checksum") != self._checksum:
                raise SegmentIntegrityError(
                    f"{path}: checksum differs from the manifest's"
                )
            if header.get("resource") != INDEX_RESOURCE:
                raise SegmentError(
                    f"{path}: holds resource {header.get('resource')!r}, "
                    f"expected {INDEX_RESOURCE!r}"
                )
            if header.get("mined_from") != self._mined_from:
                raise SegmentError(
                    f"{path}: mined from {header.get('mined_from')!r}, but "
                    f"the directory's triples are {self._mined_from!r}"
                )
            counts = [_header_count(path, header, key) for key in _INDEX_COUNTS]
            forms, candidates, first_words, __, nodes, classes, types, links = (
                counts
            )
            sizes = (
                len(counts), forms, forms + 1, forms + 1, candidates,
                first_words, nodes, nodes + 1, nodes + 1, types, nodes + 1,
                links, nodes + 1, links, classes + 1,
            )
            body = mapped.body
            cursor = 0
            for words in sizes:
                if cursor + words * _WORD > len(body):
                    raise SegmentIntegrityError(
                        f"{path}: index body too short for its counts"
                    )
                views.append(body[cursor:cursor + words * _WORD].cast("q"))
                cursor += words * _WORD
            if list(views[0]) != counts:
                raise SegmentIntegrityError(
                    f"{path}: header counts differ from the body's"
                )
            (__, self._form_hashes, self._form_offsets,
             self._candidate_offsets, self._candidate_ids, self._first_words,
             self._nodes, self._label_offsets, self._type_offsets,
             self._type_ids, self._out_offsets, self._out_ids,
             self._in_offsets, self._in_ids, self._class_offsets) = views
            payloads = []
            for offsets in (
                self._form_offsets, self._label_offsets, self._class_offsets
            ):
                payloads.append(body[cursor:cursor + offsets[-1]])
                cursor += offsets[-1]
            views.extend(payloads)
            if cursor != len(body):
                raise SegmentIntegrityError(
                    f"{path}: index body length differs from its counts"
                )
        except Exception:
            for view in views:
                view.release()
            mapped.close()
            raise
        self._form_bytes, self._label_bytes, self._class_bytes = payloads
        self._counts = dict(zip(_INDEX_COUNTS, counts))
        self._views = views
        # Published last: a thread that passes the unlocked check in
        # open() must find the columns already filled.
        self._mapped = mapped

    def close(self) -> None:
        with self._lock:
            if self._mapped is None:
                return
            for view in self._views:
                view.release()
            self._views = []
            self._mapped.close()
            self._mapped = None

    # -- surface forms --------------------------------------------------

    def __len__(self) -> int:
        """The number of surface forms."""
        return self.open()._counts["forms"]

    @property
    def max_words(self) -> int:
        """The longest surface form, in words."""
        return self.open()._counts["max_words"]

    @property
    def links(self) -> int:
        """The number of page links."""
        return self.open()._counts["links"]

    def _form(self, position: int) -> bytes:
        offsets = self._form_offsets
        return bytes(
            self._form_bytes[offsets[position]:offsets[position + 1]]
        )

    def candidate_ids(self, form: str) -> Sequence[int] | None:
        """The candidate ids of a normalised form, in insertion order, or
        None when no form matches it exactly."""
        self.open()
        hashes = self._form_hashes
        wanted = form_hash(form)
        lo = bisect_left(hashes, wanted)
        if lo == len(hashes) or hashes[lo] != wanted:
            return None
        # Equal hashes sort by form bytes: a binary search, even when
        # many forms collide.
        record = form.encode("utf-8")
        hi = bisect_right(hashes, wanted, lo)
        position = bisect_left(range(lo, hi), record, key=self._form) + lo
        if position == hi or self._form(position) != record:
            return None
        offsets = self._candidate_offsets
        return self._candidate_ids[offsets[position]:offsets[position + 1]]

    def starts(self, word: str) -> bool:
        """Whether some form may start with the normalised ``word``: a
        hash test, so a collision can answer True for a word that starts
        no form."""
        self.open()
        hashes = self._first_words
        wanted = form_hash(word)
        position = bisect_left(hashes, wanted)
        return position < len(hashes) and hashes[position] == wanted

    # -- nodes ------------------------------------------------------------

    def _node(self, term_id: int) -> int | None:
        self.open()
        nodes = self._nodes
        position = bisect_left(nodes, term_id)
        if position < len(nodes) and nodes[position] == term_id:
            return position
        return None

    def label(self, term_id: int) -> str | None:
        """The primary label of an entity id, or None."""
        node = self._node(term_id)
        if node is None:
            return None
        offsets = self._label_offsets
        start, end = offsets[node], offsets[node + 1]
        return str(self._label_bytes[start:end], "utf-8") if end > start else None

    def _class_name(self, index: int) -> str:
        offsets = self._class_offsets
        return str(self._class_bytes[offsets[index]:offsets[index + 1]], "utf-8")

    def class_names(self, term_id: int) -> list[str]:
        """An entity id's type closure as class names (empty when the id
        is no entity)."""
        node = self._node(term_id)
        if node is None:
            return []
        offsets = self._type_offsets
        return [
            self._class_name(index)
            for index in self._type_ids[offsets[node]:offsets[node + 1]]
        ]

    def out_ids(self, term_id: int) -> Sequence[int]:
        """The ids a page links to, ascending."""
        return self._slice(term_id, self._out_offsets, self._out_ids)

    def in_ids(self, term_id: int) -> Sequence[int]:
        """The ids of the pages linking to a page, ascending."""
        return self._slice(term_id, self._in_offsets, self._in_ids)

    def _slice(self, term_id: int, offsets, ids) -> Sequence[int]:
        node = self._node(term_id)
        if node is None:
            return ()
        return ids[offsets[node]:offsets[node + 1]]

    def entity_ids(self) -> list[int]:
        """Every id with a type, ascending."""
        self.open()
        return self._ids_with(self._type_offsets)

    def page_ids(self) -> list[int]:
        """Every id with a page link in either direction, ascending."""
        self.open()
        pages = set(self._ids_with(self._out_offsets))
        pages.update(self._ids_with(self._in_offsets))
        return sorted(pages)

    def _ids_with(self, offsets) -> list[int]:
        return [
            node_id for node, node_id in enumerate(self._nodes)
            if offsets[node + 1] > offsets[node]
        ]


def write_resource(path: str, name: str, mined_from: str, payload) -> str:
    """Serialize one derived resource as a JSON body; returns the body
    checksum.  ``mined_from`` is the content fingerprint of the segments
    the payload was derived from."""
    body = json.dumps(
        payload, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")
    return _write_with_header(
        path, _RESOURCE_MAGIC, {"resource": name, "mined_from": mined_from},
        body,
    )


def read_resource(path: str, name: str, checksum: str, mined_from: str):
    """Read, validate and parse a resource written by :func:`write_resource`.

    The body's SHA-256 must match both its header and ``checksum`` (the
    manifest's entry), and the header must name ``mined_from`` (the
    directory's content fingerprint), so a resource mined from other
    triples is refused even when it is intact.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as error:
        raise SegmentError(f"unreadable resource file: {error}") from None
    header, start = _split_header(path, data, _RESOURCE_MAGIC)
    body = memoryview(data)[start:]
    digest = hashlib.sha256(body).hexdigest()
    if digest != header.get("checksum") or digest != checksum:
        raise SegmentIntegrityError(f"{path}: body failed checksum validation")
    if header.get("resource") != name:
        raise SegmentError(
            f"{path}: holds resource {header.get('resource')!r}, "
            f"expected {name!r}"
        )
    if header.get("mined_from") != mined_from:
        raise SegmentError(
            f"{path}: mined from {header.get('mined_from')!r}, but the "
            f"directory's triples are {mined_from!r}"
        )
    try:
        return json.loads(body.tobytes())
    except (ValueError, UnicodeDecodeError) as error:
        raise SegmentIntegrityError(f"{path}: corrupt body: {error}") from None


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
    resources: dict[str, str] | None = None,
) -> dict:
    """Write ``manifest.json``; returns the manifest dict.

    ``object_shard_triples`` describes the optional secondary object-hash
    partition (same triples, repartitioned — it does not contribute to the
    ``triples`` total).  ``resources`` maps each shipped derived-resource
    file to its body checksum.  Both keys are additive, so directories
    written without them keep the same schema and stay readable.  The
    content ``fingerprint`` covers the dictionary and the shards only: it
    names the triples, which the resources are derived from.
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
    if resources is not None:
        manifest["resources"] = dict(resources)
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
    if not isinstance(manifest, dict):
        raise SegmentIntegrityError(f"{path}: corrupt manifest")
    if manifest.get("schema") != SEGMENT_SCHEMA:
        raise SegmentError(
            f"{path}: unknown segment schema {manifest.get('schema')!r} "
            f"(expected {SEGMENT_SCHEMA!r})"
        )
    files = manifest.get("files")
    if not isinstance(files, dict):
        raise SegmentIntegrityError(f"{path}: corrupt manifest file list")
    for name in files:
        if not os.path.exists(os.path.join(directory, name)):
            raise SegmentError(f"{directory}: missing segment file {name}")
    return manifest
