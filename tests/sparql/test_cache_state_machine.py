"""Stateful tests of the cross-query state the engine keeps.

What outlives one query: the engine's result cache (invalidated by graph
generation, exported and imported as warm state) and, over segments, the
scatter executor's per-shard result caches.  Hypothesis interleaves
queries with the operations that touch that state, and every answer must
equal a cold term-space oracle's.

* :class:`EngineMachine` runs over a small in-heap graph: SELECT and ASK
  queries submitted as text or as an AST (generated ones, and ones that
  generalise triples the graph holds, so they answer rows), triple
  additions and removals, ``clear_caches()``, and a warm-state round
  trip (export, pickle, import into a fresh engine over the same graph).
  The last few queries are issued again after every step.  The oracle is
  a fresh ``SparqlEngine(graph, cache_size=0, idspace=False)``.  After
  every step the graph's per-predicate triple counts must equal its
  scans.
* :class:`ScatterMachine` runs over a 4-shard segment directory with a
  :class:`~repro.sparql.scatter.ScatterGatherExecutor` installed and the
  fan-out gate dropped, interleaving star, two-star and conjunctive
  queries drawn from a small pool (so they recur, and two-star joins
  share trailing stars under other broadcast keys) with
  ``invalidate_caches()`` and engine cache clears; the oracle runs over
  the source graph.

Results compare as in ``test_columnar_differential.py``: ordered results
exactly, unordered ones as multisets, unordered slices as sub-multisets
of the oracle's unsliced result.
"""

from __future__ import annotations

import dataclasses
import pickle
import random
from collections import Counter, deque

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.kb import SegmentedBackend, build_segments
from repro.rdf import Graph, Triple, Variable
from repro.sparql import ScatterGatherExecutor, scatter
from repro.sparql.ast import (
    BGP,
    AskQuery,
    Group,
    OrderCondition,
    SelectQuery,
    TermExpr,
)
from repro.sparql.engine import SparqlEngine
from repro.sparql.parser import parse_query
from repro.sparql.serializer import serialize_query

from tests.sparql import querygen

#: A machine runs a quarter of the active profile's examples (50 in the
#: default profile, 250 nightly), each up to this many steps.
STEPS = 40
#: The in-heap graph stops growing here: a query over it may cross two
#: scans, so its answers stay small.
MAX_TRIPLES = 30


def _machine_settings() -> settings:
    return settings(
        max_examples=max(1, settings().max_examples // 4),
        stateful_step_count=STEPS,
        deadline=None,
    )


def _oracle(graph) -> SparqlEngine:
    return SparqlEngine(graph, cache_size=0, idspace=False)


def assert_agrees(query, actual, oracle: SparqlEngine) -> None:
    """``actual`` answers ``query`` as the oracle does."""
    expected = oracle.query(query)
    if isinstance(query, AskQuery):
        assert actual.value == expected.value
        return
    assert actual.variables == expected.variables
    if query.order_by:
        assert actual.rows == expected.rows
    elif query.limit is not None or query.offset:
        unsliced = dataclasses.replace(query, limit=None, offset=0)
        full = Counter(oracle.query(unsliced).rows)
        rows = Counter(actual.rows)
        assert sum(rows.values()) == len(expected.rows)
        assert all(full[row] >= count for row, count in rows.items())
    else:
        assert Counter(actual.rows) == Counter(expected.rows)


_triples = st.builds(
    Triple,
    st.sampled_from(querygen.IRIS),
    st.sampled_from(querygen.IRIS),
    st.sampled_from(querygen.IRIS + querygen.LITERALS),
)


# The two wrappers keep each rule's repr short: hypothesis prints it when
# a precondition turns a rule down, and querygen's own strategies print
# as their whole tree.
@st.composite
def _selects(draw):
    return draw(querygen.select_queries)


@st.composite
def _groups(draw):
    return draw(querygen.groups)


def _query_over(triples, data):
    """A SELECT or ASK whose BGP generalises ``triples``: each distinct
    term becomes a variable or stays, consistently, so the query answers
    at least one row while the graph holds them.  Generated queries over
    this vocabulary almost never match, and a cache bug only shows where
    an answer has rows that a later mutation changes."""
    variable_of = {}
    for term in sorted({term for triple in triples for term in triple}, key=repr):
        if data.draw(st.booleans()):
            variable_of[term] = Variable(f"v{len(variable_of)}")
    where = Group((
        BGP(tuple(
            Triple(*(variable_of.get(term, term) for term in triple))
            for triple in triples
        )),
    ))
    if data.draw(st.booleans()):
        return AskQuery(where=where)
    variables = sorted(variable_of.values(), key=lambda v: v.name)
    projection = tuple(
        data.draw(st.lists(st.sampled_from(variables), unique=True))
    ) if variables else ()
    order_by = tuple(
        OrderCondition(TermExpr(variable), data.draw(st.booleans()))
        for variable in data.draw(
            st.lists(st.sampled_from(variables), unique=True, max_size=2)
        )
    ) if variables else ()
    return SelectQuery(
        projection=projection,
        where=where,
        distinct=data.draw(st.booleans()),
        order_by=order_by,
        limit=data.draw(st.one_of(st.none(), st.integers(0, 5))),
        offset=data.draw(st.integers(0, 2)),
    )


#: Queries the engine machine issues again after every step.
RECENT = 4


class EngineMachine(RuleBasedStateMachine):
    """The result cache over a mutable in-heap graph.  The last
    :data:`RECENT` queries are issued again after every step, so a cached
    answer is read back after every kind of state change."""

    def __init__(self) -> None:
        super().__init__()
        self.graph = Graph()
        self.engine = SparqlEngine(self.graph)
        self.recent: deque = deque(maxlen=RECENT)

    @initialize(triples=st.lists(_triples, min_size=5, max_size=20))
    def fill(self, triples):
        for triple in triples:
            self.graph.add(triple)

    @precondition(lambda self: len(self.graph) < MAX_TRIPLES)
    @rule(triples=st.lists(_triples, min_size=1, max_size=10))
    def add(self, triples):
        for triple in triples:
            self.graph.add(triple)

    @precondition(lambda self: len(self.graph) > 0)
    @rule(data=st.data())
    def remove(self, data):
        assert self.graph.remove(self._held(data, max_size=1)[0])

    @rule()
    def clear_caches(self):
        self.engine.clear_caches()

    @rule()
    def warm_state_round_trip(self):
        state = pickle.loads(pickle.dumps(self.engine.export_warm_state()))
        fresh = SparqlEngine(self.graph)
        counts = fresh.import_warm_state(state)
        assert counts["results"] == len(state["results"])
        self.engine = fresh

    @rule(query=_selects(), as_text=st.booleans())
    def select(self, query, as_text):
        self._issue(query, as_text)

    @rule(where=_groups(), as_text=st.booleans())
    def ask(self, where, as_text):
        self._issue(AskQuery(where=where), as_text)

    @precondition(lambda self: len(self.graph) > 0)
    @rule(data=st.data(), as_text=st.booleans())
    def matching(self, data, as_text):
        self._issue(_query_over(self._held(data, max_size=2), data), as_text)

    def _held(self, data, max_size):
        """1 to ``max_size`` triples of the graph, drawn by position (a
        strategy over the triples themselves would print them all)."""
        held = sorted(self.graph, key=repr)
        positions = data.draw(
            st.lists(st.integers(0, len(held) - 1), min_size=1, max_size=max_size)
        )
        return [held[position] for position in positions]

    def _issue(self, query, as_text):
        self._check(query, as_text)
        self.recent.append((query, as_text))

    @invariant()
    def recent_answers_hold(self):
        for query, as_text in self.recent:
            self._check(query, as_text)

    def _check(self, query, as_text):
        if as_text:
            text = serialize_query(query)
            actual = self.engine.query(text)
            expected_for = parse_query(text)
        else:
            actual = self.engine.query(query)
            expected_for = query
        assert_agrees(expected_for, actual, _oracle(self.graph))

    @invariant()
    def cache_is_bounded(self):
        stats = self.engine.cache_stats()["result_cache"]
        assert stats["size"] <= stats["maxsize"]

    @invariant()
    def predicate_counts_match_scans(self):
        # The graph keeps one triple count per predicate through every
        # add and remove; the planner's predicate-only counts read it.
        for predicate in querygen.IRIS:
            p = self.graph.lookup_id(predicate)
            assert self.graph.count_ids(None, p, None) == sum(
                1 for __ in self.graph.match_ids(None, p, None)
            )


def test_engine_cache_state_machine():
    run_state_machine_as_test(EngineMachine, settings=_machine_settings())


#: The segment graph: large enough that two-star joins ship keys.
SCATTER_GRAPH_SEED = 13
SCATTER_GRAPH_SIZE = 150


def _shared_trail_query(rng: random.Random, graph: Graph) -> SelectQuery:
    """A two-star join ``?x p ?z . ?x p2 c . ?y q ?z`` over ``graph``.

    The lead star comes from triples of one subject; the trailing star
    ``?y q ?z`` takes one of two shapes, so it recurs under other lead
    stars, which broadcast other keys to it.  A shard cache that kept a
    star's batch without its keys would answer those joins wrong."""
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    held = sorted(graph, key=repr)
    edge = rng.choice(held)
    constant = rng.choice([t for t in held if t.subject == edge.subject])
    triples = (
        Triple(x, edge.predicate, z),
        Triple(x, constant.predicate, constant.object),
        Triple(y, rng.choice(querygen.IRIS[:2]), z),
    )
    return SelectQuery(projection=(x, y, z), where=Group((BGP(triples),)))


class ScatterMachine(RuleBasedStateMachine):
    """The engine's result cache and the per-shard caches over segments."""

    def __init__(self, graph: Graph, directory) -> None:
        super().__init__()
        self.graph = graph
        self.backend = SegmentedBackend(directory).open()
        self.executor = ScatterGatherExecutor(self.backend)
        self.engine = SparqlEngine(self.backend.graph_view())
        self.engine.install_scatter(self.executor)

    def teardown(self):
        self.executor.close()
        self.backend.close()

    @rule()
    def invalidate_shard_caches(self):
        self.executor.invalidate_caches()

    @rule()
    def clear_engine_caches(self):
        self.engine.clear_caches()

    # A small seed space, so queries (and their star subqueries) recur
    # within a run and get answered from the caches.
    @rule(
        seed=st.integers(0, 15),
        kind=st.sampled_from(
            ("star", "two-star", "shared-trail", "conjunctive", "ask")
        ),
    )
    def query(self, seed, kind):
        rng = random.Random(seed)
        if kind == "star":
            query = querygen.random_star_query(rng)
        elif kind == "two-star":
            query = querygen.random_two_star_query(rng, self.graph)
        elif kind == "shared-trail":
            query = _shared_trail_query(rng, self.graph)
        else:
            query = querygen.random_query(rng, conjunctive=True)
            if kind == "ask":
                query = AskQuery(where=query.where)
        assert isinstance(query, (SelectQuery, AskQuery))
        assert_agrees(query, self.engine.query(query), _oracle(self.graph))


@pytest.fixture(scope="module")
def segment_graph(tmp_path_factory):
    graph = querygen.random_graph(
        random.Random(SCATTER_GRAPH_SEED), SCATTER_GRAPH_SIZE
    )
    directory = tmp_path_factory.mktemp("state_machine_segments")
    build_segments(graph, directory, shards=4)
    return graph, directory


def test_scatter_cache_state_machine(segment_graph, monkeypatch):
    # The graph is small: without this most plans would stay under the
    # fan-out gate, and the shard caches would see no traffic.
    monkeypatch.setattr(scatter, "FANOUT_MIN_ROWS", 0)
    graph, directory = segment_graph
    run_state_machine_as_test(
        lambda: ScatterMachine(graph, directory), settings=_machine_settings()
    )
