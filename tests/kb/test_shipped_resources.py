"""Damaged segment files: a typed error, never a wrong answer.

A segment directory ships ``kb_index.bin`` (the KB's lookup indexes, as
id columns) and ``patty_store.res`` (the mined pattern store).  Every
fault in them must raise ``SegmentError`` or its subclass
``SegmentIntegrityError`` — for the index at ``KnowledgeBase.from_backend``
or at its first lookup (the file maps and checksums on first touch), for
the store at ``QuestionAnsweringSystem.over``: never a silent rebuild,
never a candidate list or an answer from resources that do not belong to
the directory's triples.  A directory whose manifest lists no
``kb_index.bin`` (written before it shipped, or with the JSON
``kb_index.res``) rebuilds the indexes from its triples.

The same fuzz helpers then damage the triple files themselves —
``dictionary.bin`` region by region (header, offsets, hash index, id
index, rank column, payload), one subject shard, one object shard, and
the values of ``manifest.json``.  There the only allowed outcomes are a
typed ``SegmentError`` when the directory opens or a shard is first
touched, or ORDER BY answers identical to the pristine directory's.
"""

import json
import random
import shutil

import pytest

from repro.api import QuestionAnsweringSystem
from repro.kb import (
    KnowledgeBase,
    SegmentedBackend,
    SegmentError,
    SegmentIntegrityError,
    build_dbpedia_ontology,
    build_segments,
    load_curated_kb,
    load_synthetic_kb,
)
from repro.kb import segment
from repro.kb.labels import SurfaceFormIndex
from repro.kb.segment import INDEX_RESOURCE, PATTERNS_RESOURCE, SegmentDictionary
from repro.kb.shard import (
    object_shard_filename,
    shard_filename,
    shard_of_object,
)
from repro.nlp.tokenizer import tokenize
from repro.rdf.namespaces import DBR
from repro.rdf.order import ORDER_VERSION
from repro.sparql import ScatterGatherExecutor, SparqlEngine

RESOURCES = (INDEX_RESOURCE, PATTERNS_RESOURCE)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    directory = tmp_path_factory.mktemp("curated") / "segments"
    build_segments(load_curated_kb().graph, directory, shards=2)
    return directory


@pytest.fixture(scope="module")
def foreign(tmp_path_factory):
    """A directory mined from other triples."""
    directory = tmp_path_factory.mktemp("synthetic") / "segments"
    build_segments(load_synthetic_kb(1).graph, directory, shards=2)
    return directory


@pytest.fixture
def directory(pristine, tmp_path):
    copy = tmp_path / "segments"
    shutil.copytree(pristine, copy)
    return copy


def load(directory):
    """Open the directory, build the QA system over it (which reads the
    shipped store) and make the shipped index's first lookup."""
    backend = SegmentedBackend(directory).open()
    try:
        kb = KnowledgeBase.from_backend(build_dbpedia_ontology(), backend)
        system = QuestionAnsweringSystem.over(kb)
        assert kb.surface_index.candidates("Orhan Pamuk") == [PAMUK]
        return system
    finally:
        backend.close()


def index_lookup(directory):
    """``from_backend`` and the index's first lookup: where a damaged
    ``kb_index.bin`` must fail."""
    backend = SegmentedBackend(directory).open()
    try:
        kb = KnowledgeBase.from_backend(build_dbpedia_ontology(), backend)
        return kb.surface_index.candidates("Orhan Pamuk")
    finally:
        backend.close()


def header_length(data: bytes) -> int:
    """Bytes of magic plus header line, the newline included."""
    return data.index(b"\n", data.index(b"\n") + 1) + 1


def edit_manifest(directory, edit) -> None:
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    edit(manifest)
    path.write_text(json.dumps(manifest), encoding="utf-8")


def test_pristine_directory_loads_both_resources(directory):
    system = load(directory)
    assert system.kb.shipped_index
    assert system.answer("Which book is written by Orhan Pamuk?").answered


#: The index file's header counts, in the order its body repeats them.
INDEX_COUNTS = (
    "forms", "candidates", "first_words", "max_words", "nodes", "classes",
    "types", "links",
)


def index_regions(data: bytes) -> dict[str, tuple[int, int]]:
    """Byte ranges of ``kb_index.bin``'s header and body regions."""
    start = header_length(data)
    header = json.loads(data[data.index(b"\n") + 1:start - 1])
    forms, candidates, first_words, __, nodes, classes, types, links = (
        header[key] for key in INDEX_COUNTS
    )
    sizes = {
        "counts": len(INDEX_COUNTS), "form_hashes": forms,
        "form_offsets": forms + 1, "candidate_offsets": forms + 1,
        "candidate_ids": candidates, "first_words": first_words,
        "nodes": nodes, "label_offsets": nodes + 1,
        "type_offsets": nodes + 1, "type_ids": types,
        "out_offsets": nodes + 1, "out_ids": links,
        "in_offsets": nodes + 1, "in_ids": links,
        "class_offsets": classes + 1,
    }
    bounds = {"header": (0, start)}
    cursor = start
    for region, words in sizes.items():
        bounds[region] = (cursor, cursor + 8 * words)
        cursor += 8 * words
    for payload, offsets in (
        ("form_bytes", "form_offsets"), ("label_bytes", "label_offsets"),
        ("class_bytes", "class_offsets"),
    ):
        end = bounds[offsets][1]
        size = int.from_bytes(data[end - 8:end], "little", signed=True)
        bounds[payload] = (cursor, cursor + size)
        cursor += size
    assert cursor == len(data)
    return bounds


class TestIndexLoadRaises:
    """Faults in ``kb_index.bin`` raise at ``from_backend`` or at the
    first lookup, never return a candidate list."""

    def test_regions_cover_the_file(self, directory):
        bounds = index_regions((directory / INDEX_RESOURCE).read_bytes())
        assert all(end > start for start, end in bounds.values())

    def test_every_header_byte_flipped(self, directory):
        path = directory / INDEX_RESOURCE
        data = path.read_bytes()
        for position in range(header_length(data)):
            corrupt = bytearray(data)
            corrupt[position] ^= 0x01
            path.write_bytes(bytes(corrupt))
            with pytest.raises(SegmentError):
                index_lookup(directory)

    def test_body_bytes_flipped(self, directory):
        path = directory / INDEX_RESOURCE
        data = path.read_bytes()
        rng = random.Random(5)
        for region, (start, end) in index_regions(data).items():
            if region == "header":
                continue
            positions = {start, end - 1}
            positions.update(rng.randrange(start, end) for __ in range(3))
            for position in sorted(positions):
                corrupt = bytearray(data)
                corrupt[position] ^= 0xFF
                path.write_bytes(bytes(corrupt))
                with pytest.raises(SegmentIntegrityError):
                    index_lookup(directory)

    def test_truncated_at_every_region_boundary(self, directory):
        path = directory / INDEX_RESOURCE
        data = path.read_bytes()
        cuts = {0, 3}
        for start, end in index_regions(data).values():
            cuts.update({start, end - 1, (start + end) // 2})
        cuts.discard(len(data))
        for length in sorted(cuts):
            path.write_bytes(data[:length])
            with pytest.raises(SegmentError):
                index_lookup(directory)

    @pytest.mark.parametrize("count", [1, 10**6, -1, "12", None])
    def test_edited_header_count_is_typed(self, directory, count):
        """The header sits outside the body checksum; the body repeats
        the counts, so an edited one is refused, never read past."""
        path = directory / INDEX_RESOURCE
        data = path.read_bytes()
        start = header_length(data)
        magic = data[:data.index(b"\n") + 1]
        for key in INDEX_COUNTS:
            header = json.loads(data[len(magic):start - 1])
            header[key] = header[key] + count if type(count) is int else count
            path.write_bytes(
                magic + json.dumps(header).encode() + b"\n" + data[start:]
            )
            with pytest.raises(SegmentError):
                index_lookup(directory)

    def test_manifest_listing_only_the_json_index_rebuilds(
        self, directory, pristine
    ):
        """A directory written when the index shipped as JSON lists
        ``kb_index.res``: its indexes are rebuilt from the triples, and
        its pattern store mined, exactly as without resources."""
        (directory / INDEX_RESOURCE).rename(directory / "kb_index.res")

        def edit(manifest):
            resources = manifest["resources"]
            resources["kb_index.res"] = resources.pop(INDEX_RESOURCE)

        edit_manifest(directory, edit)
        question = "Which book is written by Orhan Pamuk?"
        answers = []
        for segments in (directory, pristine):
            with SegmentedBackend(segments) as backend:
                kb = KnowledgeBase.from_backend(build_dbpedia_ontology(), backend)
                answers.append(QuestionAnsweringSystem.over(kb).answer(question))
                if segments == directory:
                    assert not kb.shipped_index
                    assert isinstance(kb.surface_index, SurfaceFormIndex)
        assert answers[0].answered
        assert [t.n3() for t in answers[0].answers] == [
            t.n3() for t in answers[1].answers
        ]


def test_from_backend_decodes_no_entity(directory, monkeypatch):
    """Set-up reads no index and decodes no entity; a lookup decodes
    what it returns, once."""
    decoded = []
    decode = SegmentDictionary.decode

    def counting(self, term_id):
        decoded.append(term_id)
        return decode(self, term_id)

    monkeypatch.setattr(SegmentDictionary, "decode", counting)
    with SegmentedBackend(directory) as backend:
        kb = KnowledgeBase.from_backend(build_dbpedia_ontology(), backend)
        assert kb.shipped_index and decoded == []
        assert kb.surface_index.candidates("Orhan Pamuk") == [PAMUK]
        assert len(decoded) == 1
        assert kb.surface_index.candidates("orhan  PAMUK!") == [PAMUK]
        assert kb.label_of(PAMUK) == "Orhan Pamuk"
        assert "Writer" in kb.entity_types(PAMUK)
        assert len(decoded) == 1
    # Nothing of the file is read before the first lookup.
    (directory / INDEX_RESOURCE).write_bytes(b"not an index file")
    with SegmentedBackend(directory) as backend:
        kb = KnowledgeBase.from_backend(build_dbpedia_ontology(), backend)
        with pytest.raises(SegmentError):
            kb.surface_index.candidates("Orhan Pamuk")


class TestFormHashCollisions:
    """With every form and first word hashing alike, lookups still
    verify form bytes: the rebuild's candidates for every form, nothing
    for an absent one, and the same spots."""

    @pytest.fixture
    def colliding(self, tmp_path, monkeypatch):
        monkeypatch.setattr(segment, "form_hash", lambda text: 7)
        shipped = tmp_path / "shipped"
        build_segments(load_curated_kb().graph, shipped, shards=2)
        rebuilt = tmp_path / "rebuilt"
        shutil.copytree(shipped, rebuilt)
        edit_manifest(rebuilt, lambda manifest: manifest.pop("resources"))
        backends = [SegmentedBackend(path).open() for path in (shipped, rebuilt)]
        kbs = [
            KnowledgeBase.from_backend(build_dbpedia_ontology(), backend)
            for backend in backends
        ]
        assert kbs[0].shipped_index and not kbs[1].shipped_index
        yield kbs
        for backend in backends:
            backend.close()

    def test_every_lookup_returns_the_rebuilds_candidates(self, colliding):
        got, want = (kb.surface_index for kb in colliding)
        forms = list(want._forms)
        assert len(forms) > 100
        for form in forms:
            assert got.candidates(form) == want.candidates(form), form
        for absent in ("", "orhan", "pamuk orhan", "zzz", forms[0] + " x"):
            assert got.candidates(absent) == want.candidates(absent) == []

    def test_first_word_collisions_never_change_a_spot(self, colliding):
        loaded, rebuilt = colliding
        got, want = loaded.surface_index, rebuilt.surface_index
        # A word that starts no form passes the hash test ...
        assert got.starts_form("zzz") and not want.starts_form("zzz")
        # ... and costs lookups that miss, never a different match.
        for entity in rebuilt.entities():
            label = want.label(entity)
            tokens = tokenize(f"zzz {label} and the {label}?")
            assert list(got.spot(tokens)) == list(want.spot(tokens)), label


class TestStoreLoadRaises:
    """Faults in ``patty_store.res`` stop ``over`` (the index is fine, so
    ``from_backend`` succeeds and the store read is what fails)."""

    def test_every_header_byte_flipped(self, directory):
        path = directory / PATTERNS_RESOURCE
        data = path.read_bytes()
        backend = SegmentedBackend(directory).open()
        try:
            kb = KnowledgeBase.from_backend(build_dbpedia_ontology(), backend)
            assert kb.shipped_index
            for position in range(header_length(data)):
                corrupt = bytearray(data)
                corrupt[position] ^= 0x01
                path.write_bytes(bytes(corrupt))
                with pytest.raises(SegmentError):
                    QuestionAnsweringSystem.over(kb)
        finally:
            backend.close()

    def test_body_bytes_flipped(self, directory):
        path = directory / PATTERNS_RESOURCE
        data = path.read_bytes()
        start = header_length(data)
        rng = random.Random(6)
        positions = [start, len(data) // 2, len(data) - 1]
        positions += [rng.randrange(start, len(data)) for __ in range(12)]
        for position in positions:
            corrupt = bytearray(data)
            corrupt[position] ^= 0xFF
            path.write_bytes(bytes(corrupt))
            with pytest.raises(SegmentIntegrityError):
                load(directory)


@pytest.mark.parametrize("name", RESOURCES)
class TestEveryResource:
    def test_truncated_anywhere(self, directory, name):
        path = directory / name
        data = path.read_bytes()
        end = header_length(data)
        for length in (0, 3, 12, end - 1, end, (end + len(data)) // 2,
                       len(data) - 1):
            path.write_bytes(data[:length])
            with pytest.raises(SegmentError):
                load(directory)

    def test_edited_manifest_checksum(self, directory, name):
        def edit(manifest):
            checksum = manifest["resources"][name]
            manifest["resources"][name] = checksum[::-1]

        edit_manifest(directory, edit)
        with pytest.raises(SegmentIntegrityError):
            load(directory)

    def test_missing_listed_file(self, directory, name):
        (directory / name).unlink()
        with pytest.raises(SegmentError, match="unreadable resource"):
            load(directory)

    def test_intact_file_from_another_directory(self, directory, foreign, name):
        shutil.copyfile(foreign / name, directory / name)
        # The manifest's checksum no longer matches ...
        with pytest.raises(SegmentIntegrityError):
            load(directory)
        # ... and with the checksum carried over too, the header still
        # names the other directory's triples.
        foreign_checksum = json.loads(
            (foreign / "manifest.json").read_text(encoding="utf-8")
        )["resources"][name]
        edit_manifest(
            directory,
            lambda manifest: manifest["resources"].update({name: foreign_checksum}),
        )
        with pytest.raises(SegmentError, match="mined from"):
            load(directory)

    def test_open_and_sparql_never_read_resources(self, directory, pristine, name):
        (directory / name).write_bytes(b"not a resource file")
        query = (
            "SELECT ?b WHERE { ?b <http://dbpedia.org/ontology/author> "
            "<http://dbpedia.org/resource/Orhan_Pamuk> } ORDER BY ?b"
        )
        results = []
        for segments in (directory, pristine):
            backend = SegmentedBackend(segments).open()
            try:
                results.append(SparqlEngine(backend.graph_view()).query(query).rows)
            finally:
                backend.close()
        assert results[0] == results[1]
        assert len(results[0]) == 5


# ---------------------------------------------------------------------------
# The triple files: dictionary, shards, manifest
# ---------------------------------------------------------------------------

PAMUK = DBR["Orhan_Pamuk"]

#: ORDER BY answers that read every region: plain and computed keys, ASC
#: and DESC, a fan-out over every subject shard, and an object-bound scan.
ORDER_QUERIES = (
    "SELECT ?s ?o WHERE { ?s ?p ?o } ORDER BY DESC(?o) ?s LIMIT 60 OFFSET 3",
    "SELECT DISTINCT ?o WHERE { ?s ?p ?o } ORDER BY ASC(STR(?o)) LIMIT 40",
    "SELECT ?s ?h WHERE { ?s <http://dbpedia.org/ontology/height> ?h } "
    "ORDER BY DESC(?h) ?s",
    f"SELECT ?b WHERE {{ ?b <http://dbpedia.org/ontology/author> <{PAMUK.value}> }} "
    "ORDER BY DESC(?b)",
)


def order_answers(directory):
    """Every ORDER BY answer over the directory, through scatter-gather."""
    with SegmentedBackend(directory) as backend:
        engine = SparqlEngine(backend.graph_view(), cache_size=0)
        engine.install_scatter(ScatterGatherExecutor(backend))
        return [engine.query(query).rows for query in ORDER_QUERIES]


@pytest.fixture(scope="module")
def pristine_answers(pristine):
    answers = order_answers(pristine)
    assert all(answers)
    return answers


def assert_typed_or_identical(directory, expected) -> str:
    try:
        answers = order_answers(directory)
    except SegmentError:  # SegmentIntegrityError included
        return "typed"
    assert answers == expected
    return "identical"


def object_shard_read(directory) -> str:
    """The object shard the object-bound query routes to."""
    with SegmentedBackend(directory) as backend:
        shard = shard_of_object(
            backend.lookup(PAMUK), backend.object_shard_count
        )
    return object_shard_filename(shard)


def regions(name: str, data: bytes) -> dict[str, tuple[int, int]]:
    """Byte ranges of a triple file's header and body regions."""
    start = header_length(data)
    header = json.loads(data[data.index(b"\n") + 1:start - 1])
    if name == "dictionary.bin":
        terms = header["terms"]
        names = ("offsets", "hash_index", "id_index", "ranks")
        sizes = (terms + 1, terms, terms, terms)
    else:
        names = ("spo", "pos", "osp")
        sizes = (3 * header["triples"],) * 3
    bounds = {"header": (0, start)}
    cursor = start
    for region, words in zip(names, sizes):
        bounds[region] = (cursor, cursor + 8 * words)
        cursor += 8 * words
    if name == "dictionary.bin":
        bounds["payload"] = (cursor, len(data))
    else:
        assert cursor == len(data)
    return bounds


@pytest.fixture
def triple_files(directory):
    return ("dictionary.bin", shard_filename(0), object_shard_read(directory))


class TestTripleFilesTypedOrIdentical:
    def test_every_header_byte_flipped(
        self, directory, triple_files, pristine_answers
    ):
        outcomes = []
        for name in triple_files:
            path = directory / name
            data = path.read_bytes()
            for position in range(header_length(data)):
                corrupt = bytearray(data)
                corrupt[position] ^= 0x01
                path.write_bytes(bytes(corrupt))
                outcomes.append(
                    assert_typed_or_identical(directory, pristine_answers)
                )
            path.write_bytes(data)
        # Only a flip inside the ``order`` value leaves the directory
        # readable, and then its ranks are ignored, not misread.
        assert outcomes.count("identical") == len(ORDER_VERSION)

    def test_body_bytes_flipped_in_every_region(self, directory, triple_files):
        rng = random.Random(7)
        for name in triple_files:
            path = directory / name
            data = path.read_bytes()
            for region, (start, end) in regions(name, data).items():
                if region == "header" or start == end:
                    continue
                positions = {start, end - 1}
                positions.update(rng.randrange(start, end) for __ in range(4))
                for position in sorted(positions):
                    corrupt = bytearray(data)
                    corrupt[position] ^= 0xFF
                    path.write_bytes(bytes(corrupt))
                    with pytest.raises(SegmentIntegrityError):
                        order_answers(directory)
            path.write_bytes(data)

    def test_truncated_at_every_region_boundary(self, directory, triple_files):
        for name in triple_files:
            path = directory / name
            data = path.read_bytes()
            cuts = {0, 3}
            for start, end in regions(name, data).values():
                cuts.update({start, end - 1, (start + end) // 2})
            cuts.discard(len(data))
            for length in sorted(cuts):
                path.write_bytes(data[:length])
                with pytest.raises(SegmentError):
                    order_answers(directory)
            path.write_bytes(data)

    @pytest.mark.parametrize("count", [1, 10**6, -1, "12", None])
    def test_edited_header_count_is_typed(self, directory, triple_files, count):
        """The header sits outside the body checksum: a term or triple
        count the body cannot hold is refused, never read past."""
        for name in triple_files:
            path = directory / name
            data = path.read_bytes()
            start = header_length(data)
            magic = data[:data.index(b"\n") + 1]
            header = json.loads(data[len(magic):start - 1])
            key = "terms" if name == "dictionary.bin" else "triples"
            value = header[key] + count if type(count) is int else count
            header[key] = value
            path.write_bytes(
                magic + json.dumps(header).encode() + b"\n" + data[start:]
            )
            with pytest.raises(SegmentError):
                order_answers(directory)
            path.write_bytes(data)

    def test_order_stamp_flips_never_serve_ranks(self, directory):
        """Every single-bit flip of the ``order`` value: the column is
        skipped (the dictionary still opens), never served."""
        path = directory / "dictionary.bin"
        data = path.read_bytes()
        at = data.index(ORDER_VERSION.encode())
        for position in range(at, at + len(ORDER_VERSION)):
            for bit in range(8):
                corrupt = bytearray(data)
                corrupt[position] ^= 1 << bit
                path.write_bytes(bytes(corrupt))
                try:
                    backend = SegmentedBackend(directory).open()
                except SegmentError:
                    continue
                try:
                    assert backend.dictionary.order_ranks is None
                finally:
                    backend.close()


def _bump_first(key):
    def edit(manifest):
        manifest[key][0] += 1
    return edit


def _set(key, value):
    def edit(manifest):
        manifest[key] = value(manifest[key]) if callable(value) else value
    return edit


def _delete(key):
    def edit(manifest):
        del manifest[key]
    return edit


def _edit_files(change):
    def edit(manifest):
        change(manifest["files"])
    return edit


MANIFEST_EDITS = {
    "schema": _set("schema", "repro.kbseg/v2"),
    "shards+1": _set("shards", lambda n: n + 1),
    "shards-1": _set("shards", lambda n: n - 1),
    "shards as text": _set("shards", lambda n: str(n)),
    "triples+1": _set("triples", lambda n: n + 1),
    "shard_triples[0]+1": _bump_first("shard_triples"),
    "shard_triples short": _set("shard_triples", lambda counts: counts[:-1]),
    "terms+1": _set("terms", lambda n: n + 1),
    "terms-1": _set("terms", lambda n: n - 1),
    "object_shards+1": _set("object_shards", lambda n: n + 1),
    "object_shards-1": _set("object_shards", lambda n: n - 1),
    "object_shards deleted": _delete("object_shards"),
    "object_shard_triples[0]+1": _bump_first("object_shard_triples"),
    "fingerprint reversed": _set("fingerprint", lambda text: text[::-1]),
    "dictionary checksum reversed": _edit_files(
        lambda files: files.update(
            {"dictionary.bin": files["dictionary.bin"][::-1]}
        )
    ),
    "shard file unlisted": _edit_files(lambda files: files.pop(shard_filename(1))),
    "extra file listed": _edit_files(
        lambda files: files.update({shard_filename(7): files[shard_filename(0)]})
    ),
    "files as list": _set("files", lambda files: sorted(files)),
    "resources deleted": _delete("resources"),
    "resources as list": _set("resources", lambda resources: sorted(resources)),
}


READ_BY_NOTHING = {
    "object_shard_triples[0]+1", "fingerprint reversed",
    "dictionary checksum reversed", "resources deleted",
}


@pytest.mark.parametrize("edit", list(MANIFEST_EDITS), ids=list(MANIFEST_EDITS))
def test_edited_manifest_value_is_typed_or_identical(
    directory, pristine_answers, edit
):
    edit_manifest(directory, MANIFEST_EDITS[edit])
    outcome = assert_typed_or_identical(directory, pristine_answers)
    # Only edits that change nothing the triples are read through may
    # leave it readable: SPARQL reads no resource, and no checksum,
    # fingerprint or object-shard size from the manifest.
    assert (outcome == "identical") == (edit in READ_BY_NOTHING)


def test_manifest_replaced_by_a_list_is_typed(directory, pristine_answers):
    (directory / "manifest.json").write_text("[]", encoding="utf-8")
    assert assert_typed_or_identical(directory, pristine_answers) == "typed"
