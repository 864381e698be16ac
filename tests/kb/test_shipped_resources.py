"""Shipped resource files: a damaged or foreign file is a typed error.

A segment directory ships ``kb_index.res`` (the KB's lookup indexes) and
``patty_store.res`` (the mined pattern store).  Every fault below must
make ``KnowledgeBase.from_backend`` (the index) or
``QuestionAnsweringSystem.over`` (the store) raise ``SegmentError`` or
its subclass ``SegmentIntegrityError``: never a silent rebuild, never an
answer from resources that do not belong to the directory's triples.
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
from repro.kb.segment import INDEX_RESOURCE, PATTERNS_RESOURCE
from repro.sparql import SparqlEngine

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
    """Open the directory and build the QA system over it, which loads
    both shipped resources."""
    backend = SegmentedBackend(directory).open()
    try:
        kb = KnowledgeBase.from_backend(build_dbpedia_ontology(), backend)
        return QuestionAnsweringSystem.over(kb)
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


class TestIndexLoadRaises:
    """Faults in ``kb_index.res`` stop ``from_backend``."""

    def assert_typed(self, directory):
        backend = SegmentedBackend(directory).open()
        try:
            with pytest.raises(SegmentError):
                KnowledgeBase.from_backend(build_dbpedia_ontology(), backend)
        finally:
            backend.close()

    def test_every_header_byte_flipped(self, directory):
        path = directory / INDEX_RESOURCE
        data = path.read_bytes()
        for position in range(header_length(data)):
            corrupt = bytearray(data)
            corrupt[position] ^= 0x01
            path.write_bytes(bytes(corrupt))
            self.assert_typed(directory)

    def test_body_bytes_flipped(self, directory):
        path = directory / INDEX_RESOURCE
        data = path.read_bytes()
        start = header_length(data)
        rng = random.Random(5)
        positions = [start, len(data) // 2, len(data) - 1]
        positions += [rng.randrange(start, len(data)) for __ in range(12)]
        for position in positions:
            corrupt = bytearray(data)
            corrupt[position] ^= 0xFF
            path.write_bytes(bytes(corrupt))
            with pytest.raises(SegmentIntegrityError):
                load(directory)


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
