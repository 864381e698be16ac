"""Columnar scatter coordinator: residual filters, the shared filter memo,
the fan-out gate, and the bounded plan cache.

Every answer is checked against the term-space oracle
(``SparqlEngine(idspace=False)``) over the same triples held in memory.
"""

import pytest

from repro.kb import SegmentedBackend, build_segments
from repro.obs.metrics import MetricsRegistry
from repro.rdf import Graph, IRI, Triple
from repro.rdf.datatypes import XSD_INTEGER
from repro.rdf.terms import Literal
from repro.sparql import (
    ScatterGatherExecutor,
    SparqlEngine,
    parse_query,
    partition_spec,
    scatter,
)
from repro.sparql.engine import DEFAULT_CACHE_SIZE

PREFIX = "PREFIX ex: <http://e/> "
PEOPLE = 80
AGES = 7


def _person(i: int) -> IRI:
    return IRI(f"http://e/person{i}")


def _int(value: int) -> Literal:
    return Literal(str(value), datatype=XSD_INTEGER)


def _graph() -> Graph:
    """80 people: an age (7 distinct values), one acquaintance, a home
    city (8 residents each); ``tag64``/``tag63`` mark exactly 64 and 63
    people — the two sides of the fan-out threshold."""
    e = "http://e/"
    graph = Graph()
    for i in range(PEOPLE):
        person = _person(i)
        graph.add(Triple(person, IRI(e + "age"), _int(i % AGES)))
        graph.add(
            Triple(person, IRI(e + "knows"), _person((i * 3 + 1) % PEOPLE))
        )
        graph.add(Triple(person, IRI(e + "livesIn"), IRI(f"{e}city{i % 10}")))
        if i < 64:
            graph.add(Triple(person, IRI(e + "tag64"), _int(i)))
        if i < 63:
            graph.add(Triple(person, IRI(e + "tag63"), _int(i)))
    for c in range(10):
        graph.add(
            Triple(IRI(f"{e}city{c}"), IRI(e + "population"), _int(c * 1000))
        )
    return graph


@pytest.fixture(scope="module")
def graph():
    return _graph()


@pytest.fixture()
def backend(graph, tmp_path):
    build_segments(graph, tmp_path, shards=4)
    opened = SegmentedBackend(tmp_path).open()
    yield opened
    opened.close()


@pytest.fixture(scope="module")
def oracle(graph):
    return SparqlEngine(graph, cache_size=0, idspace=False)


@pytest.fixture()
def force_fanout(monkeypatch):
    monkeypatch.setattr(scatter, "FANOUT_MIN_ROWS", 0)


def _engine(backend):
    stats = MetricsRegistry()
    engine = SparqlEngine(backend.graph_view(), cache_size=0, stats=stats)
    executor = ScatterGatherExecutor(backend)
    engine.install_scatter(executor)
    return engine, executor, stats


def _counters(stats) -> dict:
    return stats.snapshot()["counters"]


CROSS_STAR = (
    "SELECT ?x ?y WHERE { ?x ex:knows ?y . ?x ex:age ?a . ?y ex:age ?b . "
    "FILTER(?a > 1) . FILTER(?a < ?b) } ORDER BY ?x ?y"
)
VARIABLE_FREE_TRUE = (
    "SELECT ?x ?c WHERE { ?x ex:livesIn ?c . ?c ex:population ?p . "
    "FILTER(1 < 2) } ORDER BY ?x"
)
VARIABLE_FREE_FALSE = (
    "SELECT ?x ?c WHERE { ?x ex:livesIn ?c . ?c ex:population ?p . "
    "FILTER(2 < 1) } ORDER BY ?x"
)
UNBOUND_NAME_NEGATED = (
    "SELECT ?x ?y WHERE { ?x ex:knows ?y . ?y ex:age ?b . "
    "FILTER(!BOUND(?nowhere)) . FILTER(?b != 3) } ORDER BY ?y ?x"
)
UNBOUND_NAME_COMPARED = (
    "SELECT ?x ?y WHERE { ?x ex:knows ?y . ?y ex:age ?b . "
    "FILTER(?nowhere = ex:city1) }"
)


@pytest.mark.usefixtures("force_fanout")
class TestResidualFilters:
    @pytest.mark.parametrize(
        "text, residual",
        [
            (CROSS_STAR, (1,)),
            (VARIABLE_FREE_TRUE, (0,)),
            (VARIABLE_FREE_FALSE, (0,)),
            (UNBOUND_NAME_NEGATED, (0,)),
            (UNBOUND_NAME_COMPARED, (0,)),
        ],
    )
    def test_residual_filters_agree_with_oracle(
        self, backend, oracle, text, residual
    ):
        query = parse_query(PREFIX + text)
        kind, sliced = partition_spec(query)
        assert kind == "twostar"
        assert sliced.residual == residual
        engine, __, stats = _engine(backend)
        expected = oracle.query(query)
        actual = engine.query(query)
        assert actual.variables == expected.variables
        if query.order_by:
            assert actual.rows == expected.rows
        else:
            assert sorted(actual.rows, key=repr) == sorted(
                expected.rows, key=repr
            )
        counters = _counters(stats)
        assert counters["sparql.scatter.semijoin.queries"] == 1
        assert counters.get("sparql.scatter.semijoin.rows_joined", 0) == len(
            actual.rows
        )

    def test_cross_star_filter_changes_the_answer(self, backend, oracle):
        # Guard against a vacuous pass: the residual filter must actually
        # drop joined rows, and the answer must still be nonempty.
        with_filter = oracle.query(PREFIX + CROSS_STAR)
        without = oracle.query(
            PREFIX + CROSS_STAR.replace(" . FILTER(?a < ?b)", "")
        )
        assert 0 < len(with_filter.rows) < len(without.rows)

    def test_two_star_ask_with_residual_filter(self, backend, oracle):
        for text in (
            "ASK { ?x ex:knows ?y . ?x ex:age ?a . ?y ex:age ?b . "
            "FILTER(?a > ?b) }",
            "ASK { ?x ex:knows ?y . ?x ex:age ?a . ?y ex:age ?b . "
            "FILTER(?a > ?b && ?a > 10) }",
        ):
            query = parse_query(PREFIX + text)
            engine, __, __ = _engine(backend)
            assert engine.query(query).value == oracle.query(query).value


@pytest.mark.usefixtures("force_fanout")
class TestSharedFilterMemo:
    """A pushed-down filter reads global dictionary ids only, so one
    verdict per distinct id serves every shard of the gather.  The
    filters compare with ``!=``, a shape the rank path does not take."""

    @pytest.mark.parametrize(
        "text",
        [
            # subject star, filter on the only non-subject variable
            "SELECT ?x WHERE { ?x ex:age ?a . ?x ex:livesIn ?c . "
            "FILTER(?a != 3) } ORDER BY ?x",
            # two-star, filter pushed into the ?x star
            "SELECT ?x ?y WHERE { ?x ex:age ?a . ?x ex:knows ?y . "
            "?y ex:livesIn ?c . FILTER(?a != 3) } ORDER BY ?x ?y",
            # two-star, filter pushed into the ?y star
            "SELECT ?x ?y WHERE { ?x ex:knows ?y . ?y ex:age ?b . "
            "FILTER(?b != 4) } ORDER BY ?x ?y",
        ],
    )
    def test_each_distinct_id_evaluated_once(self, backend, oracle, text):
        query = parse_query(PREFIX + text)
        engine, __, stats = _engine(backend)
        assert engine.query(query).rows == oracle.query(query).rows
        counters = _counters(stats)
        assert counters["sparql.scatter.queries"] == 1
        assert counters["sparql.scatter.shards_scanned"] >= 4
        # 7 distinct ages across 4 shards: a memo per shard would
        # evaluate up to 28 times.
        assert 0 < counters["sparql.columnar.filter.evaluated"] <= AGES

    def test_range_filter_tests_ranks_and_calls_no_closure(
        self, backend, oracle
    ):
        query = parse_query(
            PREFIX + "SELECT ?x WHERE { ?x ex:age ?a . ?x ex:livesIn ?c . "
            "FILTER(?a > 2) } ORDER BY ?x"
        )
        engine, __, stats = _engine(backend)
        assert engine.query(query).rows == oracle.query(query).rows
        counters = _counters(stats)
        assert counters["sparql.scatter.queries"] == 1
        assert counters["sparql.columnar.filter.rank_rows"] > 0
        assert counters.get("sparql.columnar.filter.evaluated", 0) == 0


class TestFanoutGate:
    """Plans whose most selective pattern matches fewer than
    FANOUT_MIN_ROWS rows run single-process; larger ones fan out."""

    def test_threshold_is_64_rows(self):
        assert scatter.FANOUT_MIN_ROWS == 64

    @pytest.mark.parametrize(
        "text, kind",
        [
            # an object star, i.e. a two-star join: one tag short of the
            # threshold
            ("SELECT ?o WHERE { ?x ex:tag63 ?o . ?y ex:age ?o }", "twostar"),
            # a small subject star (8 residents of city3)
            ("SELECT ?x ?a WHERE { ?x ex:livesIn ex:city3 . ?x ex:age ?a } "
             "ORDER BY ?x", "subject"),
            # one pattern short of the threshold
            ("SELECT ?x ?t WHERE { ?x ex:tag63 ?t . ?x ex:age ?a } "
             "ORDER BY ?t", "subject"),
            # a two-star whose lead star is tiny
            ("SELECT ?x ?y WHERE { ?x ex:livesIn ex:city3 . ?x ex:knows ?y . "
             "?y ex:age ?b } ORDER BY ?x", "twostar"),
        ],
    )
    def test_small_plans_run_locally(self, backend, oracle, text, kind):
        query = parse_query(PREFIX + text)
        assert partition_spec(query)[0] == kind
        engine, __, stats = _engine(backend)
        gated = engine.query(query)
        counters = _counters(stats)
        assert counters["sparql.scatter.local_queries"] == 1
        assert "sparql.scatter.queries" not in counters
        assert "sparql.scatter.shards_scanned" not in counters
        assert sorted(gated.rows, key=repr) == sorted(
            oracle.query(query).rows, key=repr
        )

    def test_constant_subject_lookup_skips_the_gate(self, backend, oracle):
        """The lookup QA candidates run (``dbr:X dbo:p ?x``) is outside
        the fragment: it falls back without counting a pattern."""
        query = parse_query(PREFIX + "SELECT ?o WHERE { ex:person5 ex:knows ?o }")
        assert partition_spec(query) is None
        engine, __, stats = _engine(backend)
        assert engine.query(query).rows == oracle.query(query).rows
        counters = _counters(stats)
        assert counters["sparql.scatter.fallback_queries"] == 1
        assert "sparql.scatter.local_queries" not in counters

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT ?x ?t WHERE { ?x ex:tag64 ?t . ?x ex:age ?a } ORDER BY ?t",
            "SELECT ?x ?a WHERE { ?x ex:age ?a . ?x ex:knows ?y } ORDER BY ?x",
            "SELECT ?x ?y WHERE { ?x ex:knows ?y . ?y ex:age ?b . "
            "?x ex:tag64 ?t } ORDER BY ?x ?y",
        ],
    )
    def test_large_plans_fan_out(self, backend, oracle, text):
        query = parse_query(PREFIX + text)
        engine, __, stats = _engine(backend)
        assert engine.query(query).rows == oracle.query(query).rows
        counters = _counters(stats)
        assert counters["sparql.scatter.queries"] == 1
        assert counters["sparql.scatter.shards_scanned"] >= 4
        assert "sparql.scatter.local_queries" not in counters

    def test_answers_identical_either_way(self, backend, monkeypatch):
        texts = [
            "SELECT ?o WHERE { ex:person5 ex:knows ?o }",
            "SELECT ?x ?a WHERE { ?x ex:livesIn ex:city3 . ?x ex:age ?a } "
            "ORDER BY ?x",
            "SELECT ?x ?t WHERE { ?x ex:tag63 ?t . ?x ex:age ?a } ORDER BY ?t",
            "SELECT ?x ?t WHERE { ?x ex:tag64 ?t . ?x ex:age ?a } ORDER BY ?t",
        ]
        queries = [parse_query(PREFIX + text) for text in texts]
        engine, __, __ = _engine(backend)
        gated = [engine.query(query).rows for query in queries]
        monkeypatch.setattr(scatter, "FANOUT_MIN_ROWS", 0)
        forced = [engine.query(query).rows for query in queries]
        assert forced == gated


@pytest.mark.usefixtures("force_fanout")
class TestPlanCacheBounds:
    """The coordinator's plan cache is an LRU with the engine's
    plan-cache capacity, not a dict that grows per query."""

    def _distinct_queries(self, count):
        # A different pushed-down filter constant per query: every query
        # compiles a distinct ?x star subquery.
        return [
            parse_query(
                PREFIX
                + "SELECT ?x ?y WHERE { ?x ex:knows ?y . ?x ex:age ?a . "
                f"?y ex:age ?b . FILTER(?a != {index}) }}"
            )
            for index in range(count)
        ]

    def test_coordinator_plan_cache_is_bounded(self, backend):
        engine, executor, stats = _engine(backend)
        for query in self._distinct_queries(DEFAULT_CACHE_SIZE + 20):
            engine.query(query)
        assert _counters(stats)["sparql.scatter.semijoin.queries"] == (
            DEFAULT_CACHE_SIZE + 20
        )
        assert len(executor._plans) <= DEFAULT_CACHE_SIZE


@pytest.mark.usefixtures("force_fanout")
def test_threads_share_cached_batches(backend, oracle):
    """Serving threads share one executor, and with it every cached shard
    batch: no operator may write into a cached column."""
    import sys
    import threading

    queries = [
        parse_query(PREFIX + text)
        for text in (
            CROSS_STAR,
            UNBOUND_NAME_NEGATED,
            "SELECT ?x ?a WHERE { ?x ex:age ?a . ?x ex:knows ?y } "
            "ORDER BY ?a ?x",
        )
    ]
    expected = [oracle.query(query).rows for query in queries]
    executor = ScatterGatherExecutor(backend)
    # One pass up front fills every shard cache (and maps every shard the
    # queries touch), so the threads below share cached batches.
    warm = SparqlEngine(backend.graph_view(), cache_size=0)
    warm.install_scatter(executor)
    assert [warm.query(query).rows for query in queries] == expected
    failures: list = []

    def worker():
        engine = SparqlEngine(backend.graph_view(), cache_size=0)
        engine.install_scatter(executor)
        try:
            for __ in range(5):
                for query, rows in zip(queries, expected):
                    if engine.query(query).rows != rows:
                        failures.append(query)
        except Exception as error:  # surfaced by the assertion below
            failures.append(error)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for __ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
