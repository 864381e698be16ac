"""On-disk segments: format round trip, shard routing, typed corruption
failures, and the differential against the in-memory graph."""

import itertools
import json
import os
import random
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kb import (
    SegmentedBackend,
    SegmentError,
    SegmentIntegrityError,
    build_segments,
    load_curated_kb,
    shard_of_subject,
)
from repro.kb import segment
from repro.kb import shard as shard_module
from repro.kb.segment import (
    SegmentDictionary,
    SegmentShard,
    decode_term,
    encode_term,
    read_manifest,
    scan_order_key,
    term_hash,
    write_dictionary,
)
from repro.kb.shard import shard_filename
from repro.rdf import BNode, Graph, IRI, Literal, Triple
from repro.rdf.namespaces import DBO, DBR, RDF


def _random_graph(seed: int = 7, size: int = 200) -> Graph:
    rng = random.Random(seed)
    subjects = [DBR[f"S{i}"] for i in range(17)]
    predicates = [DBO[f"p{i}"] for i in range(5)]
    objects = subjects + [Literal(str(i)) for i in range(9)]
    graph = Graph()
    while len(graph) < size:
        graph.add(
            Triple(
                rng.choice(subjects),
                rng.choice(predicates),
                rng.choice(objects),
            )
        )
    return graph


def _patterns(graph: Graph):
    """Patterns of all eight bound masks, each over sampled ids (with
    ``-1`` and an id past the dictionary) and over the ids of real
    triples, so every shape — ``(s, None, o)`` included — also scans
    matching rows.  Deterministic, duplicates dropped."""
    rng = random.Random(3)
    size = len(graph.dictionary)
    ids = [rng.randrange(size) for __ in range(40)] + [-1, size + 7]
    triples = sorted(graph.match_ids(None, None, None))
    real = rng.sample(triples, min(12, len(triples)))
    patterns = []
    for mask in itertools.product([False, True], repeat=3):
        for sample in range(12):
            patterns.append((
                ids[(sample * 3) % len(ids)] if mask[0] else None,
                ids[(sample * 5 + 1) % len(ids)] if mask[1] else None,
                ids[(sample * 7 + 2) % len(ids)] if mask[2] else None,
            ))
        for triple in real:
            patterns.append(tuple(
                value if bound else None for value, bound in zip(triple, mask)
            ))
    return list(dict.fromkeys(patterns))


def _segment_counters(backend) -> Counter:
    counters = backend.perf.snapshot()["counters"]
    return Counter(
        {name: value for name, value in counters.items()
         if name.startswith("kb.segments.")}
    )


def _assert_column_scans(graph, backend, monkeypatch) -> None:
    """Column scans equal tuple scans row for row, order included, on the
    in-heap graph, the full view, every subject shard view and every
    object shard;
    the full view's column scan bumps the same ``kb.segments.*`` counters
    as its tuple scan.  Merged scans run with numpy's sort and with the
    ``heapq`` fallback."""
    full = backend.graph_view()
    views = [graph, full]
    views += [backend.shard_view(i) for i in range(backend.shard_count)]
    object_shards = [
        backend.object_shard(i) for i in range(backend.object_shard_count)
    ]
    merges = [shard_module._np]
    if shard_module._np is not None:
        merges.append(None)
    for numpy in merges:
        monkeypatch.setattr(shard_module, "_np", numpy)
        for s, p, o in _patterns(graph):
            before = _segment_counters(backend)
            rows = list(full.match_ids(s, p, o))
            scanned = _segment_counters(backend)
            assert list(zip(*full.match_columns(s, p, o))) == rows
            assert _segment_counters(backend) - scanned == scanned - before
            for view in views:
                columns = view.match_columns(s, p, o)
                assert list(zip(*columns)) == list(view.match_ids(s, p, o))
            for shard in object_shards:
                columns = shard.scan_columns(s, p, o)
                assert list(zip(*columns)) == list(shard.scan(s, p, o))


@pytest.fixture(scope="module")
def curated_segments(tmp_path_factory):
    kb = load_curated_kb()
    directory = tmp_path_factory.mktemp("segments")
    build_segments(kb.graph, directory, shards=5)
    backend = SegmentedBackend(directory).open()
    yield kb.graph, backend
    backend.close()


class TestTermCodec:
    @pytest.mark.parametrize(
        "term",
        [
            IRI("http://example.org/x"),
            Literal("plain"),
            Literal("42", datatype="http://www.w3.org/2001/XMLSchema#integer"),
            Literal("hallo", language="de"),
            Literal(""),
            Literal("unicode éß中"),
            BNode("b0"),
        ],
    )
    def test_round_trip(self, term):
        assert decode_term(encode_term(term)) == term

    def test_hash_is_deterministic_and_int64(self):
        record = encode_term(IRI("http://example.org/x"))
        value = term_hash(record)
        assert value == term_hash(record)
        assert -(2**63) <= value < 2**63


#: IRI values that stress the plain-record fast path: quotes,
#: backslashes, the record separator, brackets, non-ASCII and control
#: characters, which JSON escapes (and so send a record down json.loads).
iri_values = st.lists(
    st.one_of(
        st.sampled_from(['"', "\\", '","', "]", "[", "/", ":", "é", "中",
                         "\U0001F600", "\u2028", "\x7f"]),
        st.characters(max_codepoint=0x1F),
        st.characters(blacklist_categories=("Cs",)),
    ),
    min_size=1,
    max_size=12,
).map("".join)


class TestPlainIriRecords:
    @given(iri_values)
    def test_round_trip(self, value):
        term = IRI(value)
        assert decode_term(encode_term(term)) == term

    @given(iri_values)
    def test_plain_iff_no_escapes(self, value):
        record = encode_term(IRI(value))
        plain = segment.plain_iri_value(record)
        assert (plain is not None) == (b"\\" not in record)
        if plain is not None:
            assert plain == value

    @given(st.one_of(
        st.binary(max_size=24),
        iri_values.map(lambda value: value.encode("utf-8")),
    ))
    def test_fast_path_agrees_with_json_on_what_it_accepts(self, middle):
        # Raw, unescaped middles: what a damaged or hand-written record
        # may hold.
        record = b'["i","' + middle + b'"]'
        try:
            plain = segment.plain_iri_value(record)
        except UnicodeDecodeError:
            with pytest.raises(UnicodeDecodeError):
                record.decode("utf-8")
            return
        if plain is not None:
            assert json.loads(record.decode("utf-8")) == ["i", plain]

    @pytest.mark.parametrize("record", [
        b'["i","a","b"]', b'["i","a\\"b"]', b'["i", "a"]', b'["l","a"]',
        b'["i","a\x01"]', b'["i","a"] ',
    ])
    def test_other_records_take_json(self, record):
        assert segment.plain_iri_value(record) is None


class TestDictionarySegment:
    def test_round_trip_lookup_decode(self, tmp_path):
        graph = _random_graph()
        terms = [
            graph.dictionary.decode(i) for i in range(len(graph.dictionary))
        ]
        path = tmp_path / "dictionary.bin"
        write_dictionary(path, terms)
        mapped = SegmentDictionary(path)
        assert len(mapped) == len(terms)
        for term_id, term in enumerate(terms):
            assert mapped.lookup(term) == term_id
            assert mapped.decode(term_id) == term
        assert mapped.lookup(IRI("http://nowhere.example/absent")) is None
        with pytest.raises(KeyError):
            mapped.decode(len(terms))
        mapped.close()


class TestDifferential:
    def test_all_pattern_shapes_agree(self, curated_segments, monkeypatch):
        graph, backend = curated_segments
        view = backend.graph_view()
        for s, p, o in _patterns(graph):
            expected = sorted(graph.match_ids(s, p, o))
            assert sorted(view.match_ids(s, p, o)) == expected
            assert view.count_ids(s, p, o) == len(expected)
        _assert_column_scans(graph, backend, monkeypatch)

    def test_multi_shard_scans_are_globally_sorted(self, curated_segments):
        graph, backend = curated_segments
        some_p = graph.lookup_id(RDF.type)
        for pattern in [(None, None, None), (None, some_p, None)]:
            key = scan_order_key(*pattern)
            rows = list(backend.scan(*pattern))
            ordered = sorted(rows, key=key) if key else sorted(rows)
            assert rows == ordered

    def test_subject_bound_scan_touches_one_shard(self, curated_segments):
        graph, backend = curated_segments
        before = backend.perf.snapshot()["counters"].get(
            "kb.segments.single_shard_scans", 0
        )
        subject = next(iter(graph.match_ids(None, None, None)))[0]
        rows = list(backend.scan(subject, None, None))
        assert rows == sorted(graph.match_ids(subject, None, None))
        after = backend.perf.snapshot()["counters"][
            "kb.segments.single_shard_scans"
        ]
        assert after == before + 1
        assert {shard_of_subject(subject, backend.shard_count)} == {
            shard_of_subject(s, backend.shard_count) for s, __, __ in rows
        }

    def test_dictionary_ids_are_global(self, curated_segments):
        graph, backend = curated_segments
        for term in [DBR["Dune"], RDF.type, Literal("absent-from-kb")]:
            assert backend.lookup(term) == graph.lookup_id(term)


class TestShardEdgeCases:
    def test_empty_shards_are_valid(self, tmp_path, monkeypatch):
        graph = Graph()
        graph.add(Triple(DBR["Only"], RDF.type, DBO["Thing"]))
        manifest = build_segments(graph, tmp_path, shards=8)
        assert sorted(manifest["shard_triples"]) == [0] * 7 + [1]
        backend = SegmentedBackend(tmp_path).open()
        assert len(backend) == 1
        assert list(backend.scan(None, None, None)) == sorted(
            graph.match_ids(None, None, None)
        )
        _assert_column_scans(graph, backend, monkeypatch)
        backend.close()

    def test_all_one_shard_skew(self, tmp_path, monkeypatch):
        graph = _random_graph(size=60)
        build_segments(graph, tmp_path, shards=1)
        backend = SegmentedBackend(tmp_path).open()
        assert backend.shard_count == 1
        assert sorted(backend.scan(None, None, None)) == sorted(
            graph.match_ids(None, None, None)
        )
        _assert_column_scans(graph, backend, monkeypatch)
        backend.close()

    def test_absent_term_and_out_of_range_id(self, tmp_path):
        graph = _random_graph(size=30)
        build_segments(graph, tmp_path, shards=3)
        backend = SegmentedBackend(tmp_path).open()
        assert backend.lookup(IRI("http://nowhere.example/no")) == -1
        assert backend.count(-1, None, None) == 0
        assert list(backend.scan(None, -1, None)) == []
        with pytest.raises(KeyError):
            backend.decode(10**6)
        backend.close()

    def test_invalid_shard_count_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            build_segments(Graph(), tmp_path, shards=0)


class TestConcurrentFirstOpen:
    THREADS = 8
    TRIALS = 100

    def test_first_touch_maps_each_shard_once(self, tmp_path, monkeypatch):
        """Threads that touch a fresh shard together map its file exactly
        once, and none of them sees a half-opened shard."""
        build_segments(_random_graph(size=120), tmp_path, shards=2)
        path = str(tmp_path / shard_filename(0))
        reference = SegmentShard(path, 0)
        subject = next(reference.scan(None, None, None))[0]
        expected = reference.count(subject, None, None)
        reference.close()

        mapped: list[str] = []

        class CountingMappedFile(segment._MappedFile):
            def __init__(self, file_path, magic):
                mapped.append(file_path)
                super().__init__(file_path, magic)

        monkeypatch.setattr(segment, "_MappedFile", CountingMappedFile)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(self.TRIALS):
                shard = SegmentShard(path, 0)
                barrier = threading.Barrier(self.THREADS)
                outcomes: list = []

                def touch():
                    barrier.wait()
                    try:
                        outcomes.append(shard.count(subject, None, None))
                    except Exception as error:  # asserted below
                        outcomes.append(error)

                threads = [
                    threading.Thread(target=touch)
                    for __ in range(self.THREADS)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                shard.close()
                assert outcomes == [expected] * self.THREADS, trial
                assert len(mapped) == trial + 1, trial
        finally:
            sys.setswitchinterval(interval)


class TestCorruption:
    def _built(self, tmp_path):
        build_segments(_random_graph(size=80), tmp_path, shards=2)
        return tmp_path

    def test_corrupted_shard_body_is_typed(self, tmp_path):
        directory = self._built(tmp_path)
        path = directory / shard_filename(0)
        data = bytearray(path.read_bytes())
        data[-3] ^= 0xFF
        path.write_bytes(bytes(data))
        backend = SegmentedBackend(directory).open()  # shards map lazily
        with pytest.raises(SegmentIntegrityError):
            list(backend.scan(None, None, None))
        backend.close()

    def test_truncated_dictionary_is_typed(self, tmp_path):
        directory = self._built(tmp_path)
        path = directory / "dictionary.bin"
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises((SegmentError, SegmentIntegrityError)):
            SegmentedBackend(directory).open()

    def test_wrong_magic_is_typed(self, tmp_path):
        directory = self._built(tmp_path)
        path = directory / shard_filename(1)
        data = path.read_bytes()
        path.write_bytes(b"NOTASEG1\n" + data[9:])
        backend = SegmentedBackend(directory).open()
        with pytest.raises(SegmentError):
            list(backend.scan(None, None, None))
        backend.close()

    def test_corrupt_manifest_is_typed(self, tmp_path):
        directory = self._built(tmp_path)
        (directory / "manifest.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(SegmentIntegrityError):
            SegmentedBackend(directory).open()

    def test_missing_listed_file_is_typed(self, tmp_path):
        directory = self._built(tmp_path)
        os.remove(directory / shard_filename(0))
        with pytest.raises(SegmentError):
            SegmentedBackend(directory).open()

    def test_wrong_manifest_schema_is_typed(self, tmp_path):
        directory = self._built(tmp_path)
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["schema"] = "repro.kbseg/v999"
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(SegmentError):
            SegmentedBackend(directory).open()


class TestManifestIdentity:
    def test_fingerprint_tracks_content(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        c = tmp_path / "c"
        same = build_segments(_random_graph(seed=1), a, shards=3)
        again = build_segments(_random_graph(seed=1), b, shards=3)
        other = build_segments(_random_graph(seed=2), c, shards=3)
        assert same["fingerprint"] == again["fingerprint"]
        assert same["fingerprint"] != other["fingerprint"]
        assert read_manifest(a)["fingerprint"] == same["fingerprint"]

    def test_backend_fingerprint_shape(self, tmp_path):
        build_segments(_random_graph(size=40), tmp_path, shards=4)
        backend = SegmentedBackend(tmp_path).open()
        fingerprint = backend.fingerprint()
        assert fingerprint["kind"] == "segments"
        assert fingerprint["shards"] == 4
        assert isinstance(fingerprint["content"], str)
        stats = backend.stats()
        assert stats["kind"] == "segments"
        assert stats["counters"]["kb.segments.opened"] == 1
        backend.close()


class TestObjectPartition:
    """The secondary object-hash partition (``oshard_*.seg``): manifest
    bookkeeping, o-bound routing, and back-compat with directories
    written without it."""

    def test_manifest_records_both_partitions(self, tmp_path):
        graph = _random_graph()
        manifest = build_segments(graph, tmp_path, shards=4, object_shards=3)
        assert manifest["shards"] == 4
        assert manifest["object_shards"] == 3
        assert sum(manifest["shard_triples"]) == len(graph)
        # ``triples`` stays the primary-partition sum — the secondary is
        # a copy, not extra data.
        assert manifest["triples"] == len(graph)
        assert sum(manifest["object_shard_triples"]) == len(graph)
        on_disk = read_manifest(tmp_path)
        assert on_disk["object_shards"] == 3

    def test_object_routed_scan_equals_merged(self, tmp_path):
        graph = _random_graph(11)
        build_segments(graph, tmp_path, shards=4, object_shards=5)
        backend = SegmentedBackend(tmp_path).open()
        try:
            view = backend.graph_view()
            # Every (p?, o) probe must see exactly the triples the full
            # scan yields for that object, in the same global order.
            objects = {triple.object for triple in graph}
            for obj in objects:
                o = backend.lookup(obj)
                routed = list(backend.scan(None, None, o))
                full = [
                    t for t in backend.scan(None, None, None) if t[2] == o
                ]
                assert routed == full
                assert backend.count(None, None, o) == len(full)
            stats = backend.stats()
            assert stats["counters"]["kb.segments.object_routed_scans"] > 0
            assert view.backend is backend
        finally:
            backend.close()

    def test_directory_without_object_shards_opens(
        self, tmp_path, monkeypatch
    ):
        graph = _random_graph(13)
        manifest = build_segments(graph, tmp_path, shards=4, object_shards=0)
        assert "object_shards" not in manifest
        backend = SegmentedBackend(tmp_path).open()
        try:
            assert backend.object_shard_count == 0
            # o-bound scans still work — merged across subject shards.
            obj = next(iter(graph)).object
            o = backend.lookup(obj)
            expected = sorted(
                (t for t in backend.scan(None, None, None) if t[2] == o),
            )
            assert sorted(backend.scan(None, None, o)) == expected
            _assert_column_scans(graph, backend, monkeypatch)
        finally:
            backend.close()

    def test_fingerprint_covers_object_shards(self, tmp_path):
        graph = _random_graph(17)
        build_segments(graph, tmp_path, shards=3, object_shards=3)
        backend = SegmentedBackend(tmp_path).open()
        base = backend.fingerprint()
        backend.close()
        assert base["object_shards"] == 3
        # Rewriting with a different secondary layout changes the content
        # fingerprint even though the logical triples are identical.
        for name in os.listdir(tmp_path):
            os.remove(os.path.join(tmp_path, name))
        build_segments(graph, tmp_path, shards=3, object_shards=5)
        backend = SegmentedBackend(tmp_path).open()
        changed = backend.fingerprint()
        backend.close()
        assert changed["content"] != base["content"]
