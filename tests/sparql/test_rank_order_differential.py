"""Rank-space ORDER BY over segments: byte-identical to the term oracle.

The columnar engine sorts ORDER BY keys as int64 order ranks: shipped
ranks from a segment dictionary for plain-variable keys, local ranks for
every other key.  Every case here builds segment directories from
generated graphs (1, 4 and 8 shards, and 4 shards without the object
partition), runs generated ORDER BY queries through an engine with
scatter-gather installed, and compares rows byte for byte with the term
oracle on an ``InMemoryBackend`` over the same graph.  The literal pool
(``querygen.LITERALS``) is tie-heavy on purpose: doubles equal to
integers, tagged and typed forms of one string, NaN/INF/-INF/-0.0, a
date, a dateTime on the same day and their gYear.

A directory written before ranks shipped (no rank column, no ``order``
header key) must answer identically through the local path.
"""

import json
import random
import shutil

import pytest
from hypothesis import given

from repro.kb import InMemoryBackend, SegmentedBackend, build_segments
from repro.kb import segment
from repro.obs.metrics import MetricsRegistry
from repro.rdf.order import ORDER_VERSION
from repro.sparql import ScatterGatherExecutor, columnar
from repro.sparql.engine import SparqlEngine

from tests.sparql import querygen

#: (shards, object_shards); None keeps the default object partition.
SHARDINGS = ((1, None), (4, None), (8, None), (4, 0))
GRAPH_SEEDS = (3, 17, 29)
QUERIES_PER_GRAPH = 40


def _graph(seed: int):
    return querygen.random_graph(random.Random(seed), 150)


def _oracle(graph) -> SparqlEngine:
    return SparqlEngine(
        InMemoryBackend(graph).graph_view(), cache_size=0, idspace=False
    )


def _scatter_engine(backend, stats=None):
    engine = SparqlEngine(backend.graph_view(), cache_size=0, stats=stats)
    engine.install_scatter(ScatterGatherExecutor(backend))
    return engine


def _write_parent_dictionary(path, terms):
    """``dictionary.bin`` as written before order ranks shipped: offsets,
    hash index and payload, and no ``order`` header key."""
    from array import array

    records = [segment.encode_term(term) for term in terms]
    offsets = array("q", [0])
    for record in records:
        offsets.append(offsets[-1] + len(record))
    pairs = sorted(
        (segment.term_hash(record), term_id)
        for term_id, record in enumerate(records)
    )
    body = (
        offsets.tobytes()
        + array("q", (h for h, __ in pairs)).tobytes()
        + array("q", (term_id for __, term_id in pairs)).tobytes()
        + b"".join(records)
    )
    return segment._write_with_header(
        path, segment._DICT_MAGIC, {"terms": len(records)}, body
    )


@pytest.fixture(scope="module")
def directories(tmp_path_factory):
    """{(seed, shards, object_shards): directory} for every graph and
    sharding."""
    built = {}
    for seed in GRAPH_SEEDS:
        graph = _graph(seed)
        for shards, object_shards in SHARDINGS:
            directory = tmp_path_factory.mktemp(f"g{seed}_{shards}_{object_shards}")
            build_segments(
                graph, directory, shards=shards, object_shards=object_shards
            )
            built[seed, shards, object_shards] = directory
    return built


def _queries(seed: int):
    rng = random.Random(1000 + seed)
    graph = _graph(seed)
    return [
        querygen.random_order_query(rng, graph)
        for __ in range(QUERIES_PER_GRAPH)
    ]


def _assert_identical(engine, oracle, queries):
    for query in queries:
        expected = oracle.query(query)
        actual = engine.query(query)
        assert actual.variables == expected.variables, query
        assert actual.rows == expected.rows, query


@pytest.mark.parametrize("shards,object_shards", SHARDINGS)
@pytest.mark.parametrize("seed", GRAPH_SEEDS)
def test_scatter_engine_matches_oracle(directories, seed, shards, object_shards):
    graph = _graph(seed)
    stats = MetricsRegistry()
    with SegmentedBackend(directories[seed, shards, object_shards]) as backend:
        assert backend.dictionary.order_ranks is not None
        engine = _scatter_engine(backend, stats)
        _assert_identical(engine, _oracle(graph), _queries(seed))
    counters = stats.snapshot()["counters"]
    # Both rank sources ran, and the vectorized sort saw large inputs.
    assert counters["sparql.columnar.order.shipped_rows"] > 0
    assert counters["sparql.columnar.order.evaluated"] > 0
    if shards > 1:
        assert counters["sparql.scatter.queries"] > 0


def test_pure_python_twins_match_oracle(directories, monkeypatch):
    seed = GRAPH_SEEDS[0]
    monkeypatch.setattr(columnar, "_np", None)
    with SegmentedBackend(directories[seed, 4, None]) as backend:
        _assert_identical(
            _scatter_engine(backend), _oracle(_graph(seed)), _queries(seed)
        )


def test_in_memory_engine_ranks_locally(directories):
    """A plain ``TermDictionary`` ships no ranks: every key is ranked
    locally, with the same answers."""
    seed = GRAPH_SEEDS[1]
    graph = _graph(seed)
    stats = MetricsRegistry()
    engine = SparqlEngine(graph, cache_size=0, stats=stats)
    _assert_identical(engine, _oracle(graph), _queries(seed))
    assert stats.counter("sparql.columnar.order.shipped_rows") == 0


@pytest.fixture(scope="module")
def parent_directory(tmp_path_factory):
    """A directory in the format written before ranks shipped."""
    directory = tmp_path_factory.mktemp("parent_format")
    patch = pytest.MonkeyPatch()
    patch.setattr("repro.kb.shard.write_dictionary", _write_parent_dictionary)
    try:
        build_segments(_graph(GRAPH_SEEDS[2]), directory, shards=4)
    finally:
        patch.undo()
    return directory


def test_parent_format_directory_answers_identically(parent_directory):
    """Answers equal the oracle's, hence the ranked directory's too."""
    seed = GRAPH_SEEDS[2]
    stats = MetricsRegistry()
    with SegmentedBackend(parent_directory) as backend:
        assert backend.dictionary.order_ranks is None
        _assert_identical(
            _scatter_engine(backend, stats), _oracle(_graph(seed)),
            _queries(seed),
        )
    assert stats.counter("sparql.columnar.order.shipped_rows") == 0


def test_other_order_version_is_ignored(directories, tmp_path):
    """A rank column stamped with another key version is never served."""
    seed = GRAPH_SEEDS[0]
    copy = tmp_path / "segments"
    shutil.copytree(directories[seed, 4, None], copy)
    path = copy / "dictionary.bin"
    data = path.read_bytes()
    stamp = json.dumps(ORDER_VERSION).encode()
    other = stamp.replace(b"/v1", b"/v0")
    assert data.count(stamp) == 1 and len(other) == len(stamp)
    path.write_bytes(data.replace(stamp, other))
    stats = MetricsRegistry()
    with SegmentedBackend(copy) as backend:
        assert backend.dictionary.order_ranks is None
        _assert_identical(
            _scatter_engine(backend, stats), _oracle(_graph(seed)),
            _queries(seed),
        )
    assert stats.counter("sparql.columnar.order.shipped_rows") == 0


@pytest.fixture(scope="module")
def property_backend(directories):
    with SegmentedBackend(directories[GRAPH_SEEDS[0], 4, None]) as backend:
        yield backend


@given(query=querygen.order_queries)
def test_generated_order_queries_match_oracle(property_backend, query):
    graph = _graph(GRAPH_SEEDS[0])
    _assert_identical(
        _scatter_engine(property_backend), _oracle(graph), [query]
    )
