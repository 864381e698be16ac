"""Unordered queries over segments at 1-8 shards: multiset-equal to the
term oracle.

The unordered twin of ``tests/sparql/test_rank_order_differential.py``.
Every case builds segment directories from seeded graphs (1 to 8 shards,
and 4 shards without the object partition), runs generated subject-star,
two-star and conjunctive queries stripped of ORDER BY, LIMIT and OFFSET
through an engine with scatter-gather installed, and compares each result
with the term oracle on an ``InMemoryBackend`` over the same graph as a
multiset of rows (an unordered result carries no order, and scatter
enumerates solutions shard by shard).

Each case runs twice: as shipped, where these small graphs mostly fall
under the fan-out gate and run single-process, and with the gate dropped
(``scatter.FANOUT_MIN_ROWS = 0``), where the subject-star and semi-join
paths must both have run — so the sweep cannot pass vacuously.
"""

import dataclasses
import random
from collections import Counter

import pytest

from repro.kb import InMemoryBackend, SegmentedBackend, build_segments
from repro.obs.metrics import MetricsRegistry
from repro.sparql import ScatterGatherExecutor, scatter
from repro.sparql.engine import SparqlEngine

from tests.sparql import querygen

#: (shards, object_shards); None keeps the default object partition.
SHARDINGS = tuple((shards, None) for shards in range(1, 9)) + ((4, 0),)
GRAPH_SEEDS = (5, 23, 41)
#: Query rounds per graph.  Each round draws one subject star, one two-star
#: and three conjunctive queries.
ROUNDS = 20


def _graph(seed: int):
    return querygen.random_graph(random.Random(seed), 150)


def _unordered(query):
    return dataclasses.replace(query, order_by=(), limit=None, offset=0)


def _queries(seed: int):
    rng = random.Random(2000 + seed)
    graph = _graph(seed)
    queries = []
    for __ in range(ROUNDS):
        queries.append(querygen.random_star_query(rng))
        queries.append(querygen.random_two_star_query(rng, graph))
        queries.extend(
            querygen.random_query(rng, conjunctive=True) for __ in range(3)
        )
    return [_unordered(query) for query in queries]


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


@pytest.fixture(scope="module")
def expected():
    """{seed: [(query, oracle result)]}: the term oracle on an
    ``InMemoryBackend``, computed once per graph."""
    answers = {}
    for seed in GRAPH_SEEDS:
        oracle = SparqlEngine(
            InMemoryBackend(_graph(seed)).graph_view(),
            cache_size=0,
            idspace=False,
        )
        answers[seed] = [(query, oracle.query(query)) for query in _queries(seed)]
    return answers


@pytest.mark.parametrize("fan_out", ("shipped", "forced"))
@pytest.mark.parametrize("shards,object_shards", SHARDINGS)
@pytest.mark.parametrize("seed", GRAPH_SEEDS)
def test_scatter_engine_matches_oracle_as_multisets(
    directories, expected, monkeypatch, seed, shards, object_shards, fan_out
):
    if fan_out == "forced":
        monkeypatch.setattr(scatter, "FANOUT_MIN_ROWS", 0)
    stats = MetricsRegistry()
    with SegmentedBackend(directories[seed, shards, object_shards]) as backend:
        engine = SparqlEngine(backend.graph_view(), cache_size=0, stats=stats)
        engine.install_scatter(ScatterGatherExecutor(backend))
        for query, oracle_result in expected[seed]:
            result = engine.query(query)
            assert result.variables == oracle_result.variables, query
            assert Counter(result.rows) == Counter(oracle_result.rows), query
    if fan_out == "forced":
        assert stats.counter("sparql.scatter.queries") > 0
        assert stats.counter("sparql.scatter.semijoin.queries") > 0
