"""Scatter-gather executor: differential vs single-process execution.

The contract under test is the engine-wide one (see
tests/sparql/test_columnar_differential.py): ordered results byte-identical
row for row — ORDER BY ties included — unordered results multiset-equal,
unordered slices any valid |slice| draw.  Scatter answers only the
subject-star fragment; everything else must fall back to the ordinary
path, bit-for-bit.
"""

from collections import Counter

import pytest

from repro.kb import SegmentedBackend, build_segments
from repro.obs.metrics import MetricsRegistry
from repro.rdf import Graph, IRI, Triple, Variable
from repro.rdf.datatypes import XSD_INTEGER
from repro.rdf.terms import Literal
from repro.sparql import (
    ScatterGatherExecutor,
    SparqlEngine,
    parse_query,
    partition_spec,
    partition_variable,
    scatter,
)
from repro.sparql.ast import (
    BGP,
    Filter,
    Group,
    AskQuery,
    OptionalPattern,
    OrderCondition,
    SelectQuery,
    TermExpr,
    UnionPattern,
)

from tests.sparql import querygen


@pytest.fixture(autouse=True)
def force_fanout(monkeypatch):
    """These KBs are tiny: without this every plan would fall under the
    fan-out gate and run single-process (the gate itself is covered in
    tests/sparql/test_scatter_coordinator.py)."""
    monkeypatch.setattr(scatter, "FANOUT_MIN_ROWS", 0)


def _segmented(graph, tmp_path, shards=4):
    build_segments(graph, tmp_path, shards=shards)
    return SegmentedBackend(tmp_path).open()


def _star_query(order=True, distinct=False, limit=None):
    s, p, o = Variable("s"), Variable("p"), Variable("o")
    where = Group(
        (
            BGP(
                (
                    Triple(s, IRI("http://example.org/p0"), o),
                    Triple(s, p, Variable("q")),
                )
            ),
        )
    )
    return SelectQuery(
        projection=(s, o),
        where=where,
        distinct=distinct,
        order_by=(
            (OrderCondition(TermExpr(o), False), OrderCondition(TermExpr(s), False))
            if order
            else ()
        ),
        limit=limit,
    )


def _assert_agrees(query, expected, actual, oracle):
    assert actual.variables == expected.variables
    if getattr(query, "order_by", ()):
        assert actual.rows == expected.rows
    elif query.limit is not None or query.offset:
        unsliced = SelectQuery(
            projection=query.projection,
            where=query.where,
            distinct=query.distinct,
        )
        full = Counter(oracle.query(unsliced).rows)
        actual_rows = Counter(actual.rows)
        assert sum(actual_rows.values()) == len(expected.rows)
        assert all(full[row] >= count for row, count in actual_rows.items())
    else:
        assert Counter(actual.rows) == Counter(expected.rows)


class TestPartitionability:
    def _bgp(self, subject):
        return BGP((Triple(subject, Variable("p"), Variable("o")),))

    def test_subject_star_is_partitionable(self):
        query = _star_query()
        assert partition_variable(query) == Variable("s")

    def test_ask_is_partitionable(self):
        query = AskQuery(where=Group((self._bgp(Variable("x")),)))
        assert partition_variable(query) == Variable("x")

    def test_filters_do_not_block(self):
        query = SelectQuery(
            projection=(Variable("x"),),
            where=Group(
                (
                    self._bgp(Variable("x")),
                    Filter(TermExpr(Variable("x"))),
                )
            ),
        )
        assert partition_variable(query) == Variable("x")

    @pytest.mark.parametrize(
        "where",
        [
            Group(()),  # no triple pattern at all
            Group((BGP((Triple(IRI("http://e.org/a"), Variable("p"), Variable("o")),)),)),
            Group(
                (
                    BGP((Triple(Variable("a"), Variable("p"), Variable("o")),)),
                    BGP((Triple(Variable("b"), Variable("q"), Variable("r")),)),
                )
            ),
            Group(
                (
                    BGP((Triple(Variable("a"), Variable("p"), Variable("o")),)),
                    OptionalPattern(
                        Group((BGP((Triple(Variable("a"), Variable("q"), Variable("r")),)),))
                    ),
                )
            ),
            Group(
                (
                    UnionPattern(
                        Group((BGP((Triple(Variable("a"), Variable("p"), Variable("o")),)),)),
                        Group((BGP((Triple(Variable("a"), Variable("q"), Variable("o")),)),)),
                    ),
                )
            ),
        ],
    )
    def test_non_star_shapes_fall_back(self, where):
        query = SelectQuery(projection=(Variable("a"),), where=where)
        assert partition_variable(query) is None

    def test_unordered_slice_falls_back(self):
        assert partition_variable(_star_query(order=False, limit=3)) is None
        assert partition_variable(_star_query(order=True, limit=3)) is not None


class TestInlineDifferential:
    @pytest.mark.parametrize("seed", [11, 23, 31, 47])
    def test_seeded_workload_agrees(self, seed, tmp_path):
        graph, queries = querygen.random_workload(
            seed, queries=25, graph_size=60, conjunctive=True
        )
        backend = _segmented(graph, tmp_path)
        oracle = SparqlEngine(graph, cache_size=0)
        stats = MetricsRegistry()
        engine = SparqlEngine(
            backend.graph_view(), cache_size=0, stats=stats
        )
        engine.install_scatter(ScatterGatherExecutor(backend))
        for query in queries:
            _assert_agrees(
                query, oracle.query(query), engine.query(query), oracle
            )
        counters = stats.snapshot()["counters"]
        assert (
            counters.get("sparql.scatter.queries", 0)
            + counters.get("sparql.scatter.fallback_queries", 0)
            == len(queries)
        )
        backend.close()

    def test_star_queries_fan_out(self, tmp_path):
        graph, __ = querygen.random_workload(5, queries=0, graph_size=80)
        backend = _segmented(graph, tmp_path)
        oracle = SparqlEngine(graph, cache_size=0)
        stats = MetricsRegistry()
        engine = SparqlEngine(backend.graph_view(), cache_size=0, stats=stats)
        engine.install_scatter(ScatterGatherExecutor(backend))
        for query in [
            _star_query(),
            _star_query(distinct=True),
            _star_query(order=True, limit=5),
            _star_query(order=False),
        ]:
            _assert_agrees(
                query, oracle.query(query), engine.query(query), oracle
            )
        counters = stats.snapshot()["counters"]
        assert counters["sparql.scatter.queries"] == 4
        assert counters["sparql.scatter.shards_scanned"] == 16
        assert "sparql.scatter.fallback_queries" not in counters
        backend.close()

    def test_order_by_ties_are_byte_identical(self, tmp_path):
        # Every solution shares one object value, so the sort key ties on
        # every row and only the deterministic id-tuple tie-break orders
        # them — the scatter path must reproduce it exactly.
        graph = Graph()
        common = IRI("http://example.org/common")
        p0 = IRI("http://example.org/p0")
        for i in range(40):
            graph.add(Triple(IRI(f"http://example.org/s{i}"), p0, common))
            graph.add(
                Triple(
                    IRI(f"http://example.org/s{i}"),
                    IRI("http://example.org/p1"),
                    common,
                )
            )
        backend = _segmented(graph, tmp_path, shards=5)
        oracle = SparqlEngine(graph, cache_size=0)
        engine = SparqlEngine(backend.graph_view(), cache_size=0)
        engine.install_scatter(ScatterGatherExecutor(backend))
        s, o = Variable("s"), Variable("o")
        query = SelectQuery(
            projection=(s,),
            where=Group(
                (
                    BGP(
                        (
                            Triple(s, p0, o),
                            Triple(s, IRI("http://example.org/p1"), o),
                        )
                    ),
                )
            ),
            order_by=(OrderCondition(TermExpr(o), False),),
        )
        assert engine.query(query).rows == oracle.query(query).rows
        backend.close()

    def test_ask_short_circuits(self, tmp_path):
        graph, __ = querygen.random_workload(9, queries=0, graph_size=50)
        backend = _segmented(graph, tmp_path)
        oracle = SparqlEngine(graph, cache_size=0)
        engine = SparqlEngine(backend.graph_view(), cache_size=0)
        engine.install_scatter(ScatterGatherExecutor(backend))
        x = Variable("x")
        hit = AskQuery(
            where=Group((BGP((Triple(x, Variable("p"), Variable("o")),)),))
        )
        miss = AskQuery(
            where=Group(
                (BGP((Triple(x, IRI("http://nowhere.example/p"), x),)),)
            )
        )
        for query in (hit, miss):
            assert engine.query(query).value == oracle.query(query).value
        backend.close()

    def test_uninstall_restores_plain_execution(self, tmp_path):
        graph, __ = querygen.random_workload(2, queries=0, graph_size=30)
        backend = _segmented(graph, tmp_path)
        stats = MetricsRegistry()
        engine = SparqlEngine(backend.graph_view(), cache_size=0, stats=stats)
        engine.install_scatter(ScatterGatherExecutor(backend))
        engine.query(_star_query())
        engine.install_scatter(None)
        engine.query(_star_query())
        counters = stats.snapshot()["counters"]
        assert counters["sparql.scatter.queries"] == 1
        backend.close()


def _object_star_query(order=True, triples=2):
    o = Variable("o")
    patterns = tuple(
        Triple(Variable(f"s{i}"), IRI(f"http://e/{'abcdef'[i]}"), o)
        for i in range(triples)
    )
    return SelectQuery(
        projection=(o,),
        where=Group((BGP(patterns),)),
        order_by=(OrderCondition(TermExpr(o), False),) if order else (),
    )


def _two_star_query():
    x, y = Variable("x"), Variable("y")
    return SelectQuery(
        projection=(x, y),
        where=Group(
            (
                BGP(
                    (
                        Triple(x, IRI("http://e/a"), Variable("v")),
                        Triple(x, IRI("http://e/b"), y),
                    )
                ),
                BGP((Triple(y, IRI("http://e/c"), Variable("w")),)),
            )
        ),
        order_by=(
            OrderCondition(TermExpr(x), False),
            OrderCondition(TermExpr(y), False),
        ),
    )


class TestPartitionSpec:
    def test_subject_star_wins_over_object(self):
        # Single-triple star is both a subject star and an object star;
        # the primary partition must win (no secondary files needed).
        query = SelectQuery(
            projection=(Variable("s"),),
            where=Group(
                (BGP((Triple(Variable("s"), Variable("p"), Variable("o")),)),)
            ),
        )
        kind, variable = partition_spec(query)
        assert kind == "subject"
        assert variable == Variable("s")

    def test_object_star_classified(self):
        kind, variable = partition_spec(_object_star_query())
        assert kind == "object"
        assert variable == Variable("o")

    def test_object_star_needs_secondary_partition(self):
        # Two distinct subjects sharing an object IS a two-star join, so
        # without object shards the spec degrades to the semi-join class
        # rather than disappearing...
        spec = partition_spec(_object_star_query(), object_shards=False)
        assert spec is not None and spec[0] == "twostar"
        # ...but three subjects cannot, and fall back entirely.
        assert (
            partition_spec(
                _object_star_query(triples=3), object_shards=False
            )
            is None
        )

    def test_two_star_classified(self):
        kind, sliced = partition_spec(_two_star_query())
        assert kind == "twostar"
        assert sliced.join_names == ("y",)
        assert {star.variable.name for star in sliced.stars} == {"x", "y"}

    def test_three_stars_fall_back(self):
        query = SelectQuery(
            projection=(Variable("a"),),
            where=Group(
                (
                    BGP(
                        (
                            Triple(Variable("a"), IRI("http://e/a"), Variable("b")),
                            Triple(Variable("b"), IRI("http://e/b"), Variable("c")),
                            Triple(Variable("c"), IRI("http://e/c"), Variable("a")),
                        )
                    ),
                )
            ),
        )
        assert partition_spec(query) is None

    def test_disconnected_stars_fall_back(self):
        query = SelectQuery(
            projection=(Variable("a"), Variable("b")),
            where=Group(
                (
                    BGP((Triple(Variable("a"), IRI("http://e/a"), IRI("http://e/b")),)),
                    BGP((Triple(Variable("b"), IRI("http://e/c"), IRI("http://e/d")),)),
                )
            ),
        )
        assert partition_spec(query) is None


class TestSlicingGuard:
    """Satellite S2: sliced queries whose ORDER BY keys are computed
    expressions must be rejected by every partition class, not mis-routed
    — a computed key can rank ties by something the shard merge does not
    reproduce."""

    @pytest.mark.parametrize("seed", range(8))
    def test_computed_order_keys_reject_partitioning(self, seed):
        import random

        rng = random.Random(seed)
        query = querygen.random_star_query(rng, computed_order=True)
        assert query.limit is not None
        assert partition_spec(query) is None

    def test_computed_order_without_slice_is_accepted(self):
        sliced = querygen.random_star_query(
            __import__("random").Random(0), computed_order=True
        )
        unsliced = SelectQuery(
            projection=sliced.projection,
            where=sliced.where,
            distinct=sliced.distinct,
            order_by=sliced.order_by,
        )
        assert partition_spec(unsliced) is not None

    def test_fallback_answers_agree(self, tmp_path):
        import random

        rng = random.Random(13)
        graph = querygen.random_graph(rng, 60)
        queries = [
            querygen.random_star_query(random.Random(seed), computed_order=True)
            for seed in range(6)
        ]
        backend = _segmented(graph, tmp_path)
        oracle = SparqlEngine(graph, cache_size=0)
        stats = MetricsRegistry()
        engine = SparqlEngine(backend.graph_view(), cache_size=0, stats=stats)
        engine.install_scatter(ScatterGatherExecutor(backend))
        for query in queries:
            assert engine.query(query).rows == oracle.query(query).rows
        counters = stats.snapshot()["counters"]
        assert counters["sparql.scatter.fallback_queries"] == len(queries)
        assert "sparql.scatter.queries" not in counters
        backend.close()


class TestObjectStarDifferential:
    def test_object_star_routes_and_agrees(self, tmp_path):
        import random

        graph = querygen.random_graph(random.Random(21), 80)
        backend = _segmented(graph, tmp_path)
        oracle = SparqlEngine(graph, cache_size=0)
        stats = MetricsRegistry()
        engine = SparqlEngine(backend.graph_view(), cache_size=0, stats=stats)
        engine.install_scatter(ScatterGatherExecutor(backend))
        for query in [
            _object_star_query(),
            _object_star_query(order=False),
            _object_star_query(triples=3),
        ]:
            _assert_agrees(
                query, oracle.query(query), engine.query(query), oracle
            )
        counters = stats.snapshot()["counters"]
        assert counters["sparql.scatter.object_queries"] == 3
        assert counters["sparql.scatter.queries"] == 3
        backend.close()

    def test_without_object_shards_still_agrees(self, tmp_path):
        import random

        graph = querygen.random_graph(random.Random(22), 60)
        build_segments(graph, tmp_path, shards=4, object_shards=0)
        backend = SegmentedBackend(tmp_path).open()
        assert backend.object_shard_count == 0
        oracle = SparqlEngine(graph, cache_size=0)
        stats = MetricsRegistry()
        engine = SparqlEngine(backend.graph_view(), cache_size=0, stats=stats)
        engine.install_scatter(ScatterGatherExecutor(backend))
        query = _object_star_query()
        _assert_agrees(query, oracle.query(query), engine.query(query), oracle)
        assert "sparql.scatter.object_queries" not in stats.snapshot()["counters"]
        backend.close()


class TestSemiJoinDifferential:
    @pytest.mark.parametrize("seed", [7, 11, 19, 42])
    def test_seeded_two_star_workload_agrees(self, seed, tmp_path):
        graph, queries = querygen.random_two_star_workload(
            seed, queries=20, graph_size=70
        )
        backend = _segmented(graph, tmp_path)
        oracle = SparqlEngine(graph, cache_size=0)
        stats = MetricsRegistry()
        engine = SparqlEngine(backend.graph_view(), cache_size=0, stats=stats)
        engine.install_scatter(ScatterGatherExecutor(backend))
        for query in queries:
            _assert_agrees(
                query, oracle.query(query), engine.query(query), oracle
            )
        counters = stats.snapshot()["counters"]
        assert counters.get("sparql.scatter.semijoin.queries", 0) > 0
        backend.close()

    def test_handcrafted_join_counters(self, tmp_path):
        import random

        graph = querygen.random_graph(random.Random(33), 90)
        backend = _segmented(graph, tmp_path)
        oracle = SparqlEngine(graph, cache_size=0)
        stats = MetricsRegistry()
        engine = SparqlEngine(backend.graph_view(), cache_size=0, stats=stats)
        engine.install_scatter(ScatterGatherExecutor(backend))
        query = _two_star_query()
        assert engine.query(query).rows == oracle.query(query).rows
        counters = stats.snapshot()["counters"]
        assert counters["sparql.scatter.semijoin.queries"] == 1
        # One of the two shipping strategies must have fired (unless the
        # lead star was empty, which this graph size makes implausible —
        # keys_shipped pins that down).
        if counters.get("sparql.scatter.semijoin.keys_shipped", 0):
            assert (
                counters.get("sparql.scatter.semijoin.shipped_ids", 0) > 0
                or counters.get("sparql.scatter.semijoin.broadcasts", 0) > 0
            )
        backend.close()

    def test_two_star_ask_and_count(self, tmp_path):
        graph, __ = querygen.random_two_star_workload(3, queries=0, graph_size=70)
        backend = _segmented(graph, tmp_path)
        oracle = SparqlEngine(graph, cache_size=0)
        engine = SparqlEngine(backend.graph_view(), cache_size=0)
        engine.install_scatter(ScatterGatherExecutor(backend))
        base = _two_star_query()
        ask = AskQuery(where=base.where)
        assert engine.query(ask).value == oracle.query(ask).value
        backend.close()


class TestShardCache:
    def test_inline_cache_hits_and_invalidation(self, tmp_path):
        graph, queries = querygen.random_two_star_workload(
            5, queries=4, graph_size=50
        )
        backend = _segmented(graph, tmp_path)
        oracle = SparqlEngine(graph, cache_size=0)
        stats = MetricsRegistry()
        engine = SparqlEngine(backend.graph_view(), cache_size=0, stats=stats)
        executor = ScatterGatherExecutor(backend, stats=stats)
        engine.install_scatter(executor)
        workload = queries + [_star_query(), _two_star_query()]

        def run_all():
            return [engine.query(query).rows for query in workload]

        first = run_all()
        misses_cold = stats.snapshot()["counters"]["kb.shard_cache.misses"]
        assert "kb.shard_cache.hits" not in stats.snapshot()["counters"]
        second = run_all()
        counters = stats.snapshot()["counters"]
        assert counters["kb.shard_cache.hits"] > 0
        assert counters["kb.shard_cache.misses"] == misses_cold
        assert second == first

        # A rebind (the hot-reload entry point) empties every shard cache.
        executor.rebind(backend)
        third = run_all()
        counters = stats.snapshot()["counters"]
        assert counters["kb.shard_cache.invalidations"] == 1
        assert counters["kb.shard_cache.misses"] == 2 * misses_cold
        assert third == first
        assert first == [oracle.query(query).rows for query in workload]
        backend.close()

    def test_cached_empty_results_are_hits(self, tmp_path):
        import random

        graph = querygen.random_graph(random.Random(8), 40)
        backend = _segmented(graph, tmp_path)
        stats = MetricsRegistry()
        engine = SparqlEngine(backend.graph_view(), cache_size=0, stats=stats)
        engine.install_scatter(ScatterGatherExecutor(backend))
        x = Variable("x")
        empty = SelectQuery(
            projection=(x,),
            where=Group(
                (BGP((Triple(x, IRI("http://nowhere.example/p"), x),)),)
            ),
        )
        assert engine.query(empty).rows == ()
        assert engine.query(empty).rows == ()
        counters = stats.snapshot()["counters"]
        assert counters["kb.shard_cache.hits"] == backend.shard_count
        backend.close()


def _people(count, knows_first=False):
    """``count`` people with an age (9 distinct values) and one
    acquaintance each: enough subjects that every shard holds some.
    ``knows_first`` adds every acquaintance before any age, so the same
    terms get other dictionary ids."""
    ages = [
        Triple(
            IRI(f"http://e/person{i}"),
            IRI("http://e/age"),
            Literal(str(i % 9), datatype=XSD_INTEGER),
        )
        for i in range(count)
    ]
    knows = [
        Triple(
            IRI(f"http://e/person{i}"),
            IRI("http://e/knows"),
            IRI(f"http://e/person{(i * 7 + 1) % count}"),
        )
        for i in range(count)
    ]
    return Graph(knows + ages if knows_first else ages + knows)


PEOPLE_STAR = (
    "PREFIX ex: <http://e/> SELECT ?x ?a WHERE { ?x ex:age ?a . "
    "?x ex:knows ?y } ORDER BY ?x ?a"
)
PEOPLE_TWO_STAR = (
    "PREFIX ex: <http://e/> SELECT ?x ?y WHERE { ?x ex:knows ?y . "
    "?x ex:age ?a . ?y ex:age ?b . FILTER(?a > 2) . FILTER(?a < ?b) } "
    "ORDER BY ?x ?y"
)


class TestBackendBinding:
    """A scatter call runs on one backend from start to end: the one its
    plan's ids were resolved against and the foreign-graph check
    compared."""

    @pytest.fixture()
    def bound(self, tmp_path):
        """Two segment directories of different content, each with its
        graph's term-space oracle."""
        pairs = []
        for name, count, knows_first in (("a", 90, False), ("b", 60, True)):
            graph = _people(count, knows_first)
            build_segments(graph, tmp_path / name, shards=4)
            pairs.append(
                (
                    SegmentedBackend(tmp_path / name).open(),
                    SparqlEngine(graph, cache_size=0, idspace=False),
                )
            )
        yield pairs
        for backend, __ in pairs:
            backend.close()

    @pytest.mark.parametrize("text", [PEOPLE_STAR, PEOPLE_TWO_STAR])
    @pytest.mark.parametrize("hook", ["_execute_shard", "_min_pattern_count"])
    def test_rebind_mid_call_keeps_the_call_on_its_backend(
        self, bound, monkeypatch, text, hook
    ):
        (backend_a, oracle_a), (backend_b, oracle_b) = bound
        query = parse_query(text)
        executor = ScatterGatherExecutor(backend_a)
        original = getattr(scatter, hook)
        rebinds = []

        def run_then_rebind(*args, **kwargs):
            result = original(*args, **kwargs)
            if not rebinds:
                # A hot reload landing in the middle of the call: after
                # the first shard ran, or after the fan-out gate.
                rebinds.append(hook)
                executor.rebind(backend_b)
            return result

        monkeypatch.setattr(scatter, hook, run_then_rebind)
        engine_a = SparqlEngine(backend_a.graph_view(), cache_size=0)
        engine_a.install_scatter(executor)
        assert engine_a.query(query).rows == oracle_a.query(query).rows
        assert rebinds == [hook]

        stats = MetricsRegistry()
        engine_b = SparqlEngine(
            backend_b.graph_view(), cache_size=0, stats=stats
        )
        engine_b.install_scatter(executor)
        assert engine_b.query(query).rows == oracle_b.query(query).rows
        assert stats.snapshot()["counters"]["sparql.scatter.queries"] == 1

    def test_foreign_graph_falls_back(self, bound):
        (backend_a, __), (backend_b, oracle_b) = bound
        stats = MetricsRegistry()
        engine = SparqlEngine(
            backend_b.graph_view(), cache_size=0, stats=stats
        )
        engine.install_scatter(ScatterGatherExecutor(backend_a, stats=stats))
        for text in (PEOPLE_STAR, PEOPLE_TWO_STAR):
            query = parse_query(text)
            assert engine.query(query).rows == oracle_b.query(query).rows
        counters = stats.snapshot()["counters"]
        assert counters["sparql.scatter.foreign_graph_fallbacks"] == 2
        assert not [
            name for name in counters if name.startswith("kb.shard_cache.")
        ]


class TestPoolLifecycle:
    """The executor's lifecycle: ``close`` releases its caches and may be
    called twice; inline (``processes=0``) is the only execution mode."""

    def test_close_is_idempotent(self, tmp_path):
        graph, __ = querygen.random_workload(44, queries=0, graph_size=30)
        backend = _segmented(graph, tmp_path)
        executor = ScatterGatherExecutor(backend)
        engine = SparqlEngine(backend.graph_view(), cache_size=0)
        engine.install_scatter(executor)
        engine.query(_star_query())
        executor.close()
        executor.close()
        assert executor._caches == {}
        backend.close()

    def test_processes_accepts_only_inline(self, tmp_path):
        graph, __ = querygen.random_workload(45, queries=0, graph_size=20)
        backend = _segmented(graph, tmp_path)
        with pytest.raises(ValueError):
            ScatterGatherExecutor(backend, processes=1)
        ScatterGatherExecutor(backend, processes=0).close()
        backend.close()
