"""The compiled join order is the term-space planner's, and EXPLAIN prints it.

The id-space compiler counts its compiled patterns with ``count_ids`` on
the ids it resolved; the term-space planner (``plan_bgp``, which the
reference executor and ``repro plan`` use) counts the triples with
``count``.  Both feed the one greedy loop in ``repro.sparql.planner``, so
every BGP of a query must join in the same order on both sides, with the
variables definitely bound at that BGP: a BGP binds its variables, a
UNION what both branches bind, a nested group its own, an OPTIONAL
nothing.  The oracle below walks the query with that rule and plans each
BGP with ``plan_bgp``; the compiled plan and the EXPLAIN text must
reproduce its orders, over an in-heap graph and over 4-shard segments.
"""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings

from repro.kb import SegmentedBackend, build_segments, load_synthetic_kb
from repro.rdf import Graph, Triple, Variable
from repro.sparql.ast import BGP, Group, OptionalPattern, SelectQuery, UnionPattern
from repro.sparql.columnar import compile_query
from repro.sparql.compiler import (
    CompiledBGP,
    CompiledGroup,
    CompiledOptional,
    CompiledUnion,
)
from repro.sparql.explain import explain
from repro.sparql.parser import parse_query
from repro.sparql.planner import plan_bgp
from repro.sparql.serializer import serialize_term

from tests.sparql import querygen

#: The twelve join-heavy queries of the end-to-end ``sparql-joins``
#: workload (benchmarks/e2e/inputs.py).
JOIN_QUERIES = {
    "star_writer_place": (
        "SELECT ?w ?c WHERE { ?w a dbo:Writer . ?w dbo:birthPlace ?c . "
        "?w dbo:height ?h } ORDER BY ?w ?c"
    ),
    "star_book_pages": (
        "SELECT ?b ?n WHERE { ?b a dbo:Novel . ?b dbo:numberOfPages ?n . "
        "?b dbo:author ?a } ORDER BY ?n ?b LIMIT 500"
    ),
    "star_city_filter": (
        "SELECT ?c ?p WHERE { ?c a dbo:City . ?c dbo:populationTotal ?p . "
        "FILTER(?p > 1000000) } ORDER BY ?p ?c"
    ),
    "path_book_country": (
        "SELECT ?b ?co WHERE { ?b dbo:author ?w . ?w dbo:birthPlace ?c . "
        "?c dbo:country ?co } ORDER BY ?b ?co LIMIT 500"
    ),
    "path_writer_capital": (
        "SELECT ?w ?cap WHERE { ?w dbo:birthPlace ?c . ?c dbo:country ?co . "
        "?co dbo:capital ?cap } ORDER BY ?w ?cap LIMIT 500"
    ),
    "count_writers": (
        "SELECT (COUNT(?w) AS ?n) WHERE { ?w a dbo:Writer . "
        "?w dbo:birthPlace ?c }"
    ),
    "ask_tall_writer": (
        "ASK { ?w a dbo:Writer . ?w dbo:height ?h . FILTER(?h > 2.0) }"
    ),
    "join_tall_writer_big_city": (
        "SELECT ?w ?c WHERE { ?w a dbo:Writer . ?w dbo:height ?h . "
        "?w dbo:birthPlace ?c . FILTER(?h > 2.05) . ?c a dbo:City . "
        "?c dbo:populationTotal ?p . FILTER(?p > 5000000) } ORDER BY ?w ?c"
    ),
    "join_long_novel_tall_author": (
        "SELECT ?b ?w WHERE { ?b a dbo:Novel . ?b dbo:numberOfPages ?n . "
        "?b dbo:author ?w . FILTER(?n > 900) . ?w a dbo:Writer . "
        "?w dbo:height ?h . FILTER(?h > 1.95) } ORDER BY ?b ?w"
    ),
    "join_short_writer_small_city": (
        "SELECT ?w ?p WHERE { ?w a dbo:Writer . ?w dbo:height ?h . "
        "?w dbo:birthPlace ?c . FILTER(?h < 1.55) . ?c a dbo:City . "
        "?c dbo:populationTotal ?p . FILTER(?p < 200000) } ORDER BY ?w ?p"
    ),
    "join_heavy_book_city": (
        "SELECT ?b ?c WHERE { ?b a dbo:Novel . ?b dbo:numberOfPages ?n . "
        "?b dbo:author ?w . FILTER(?n > 850) . ?w dbo:birthPlace ?c . "
        "?w dbo:height ?h . FILTER(?h > 1.9) } ORDER BY ?b ?c LIMIT 500"
    ),
    "join_ask_giant_pair": (
        "ASK { ?w a dbo:Writer . ?w dbo:height ?h . FILTER(?h > 2.09) . "
        "?w dbo:birthPlace ?c . ?c dbo:populationTotal ?p . "
        "FILTER(?p > 8000000) }"
    ),
}

#: Left out of the generated-query graph, so a query naming it carries a
#: constant absent from the dictionary.
ABSENT = querygen.IRIS[-1]

_JOIN_LINE = re.compile(r"\s*join\[(\d+)\] (?:scan|lookup) (.*) \(est\. \d+\)$")


def term_orders(graph, group: Group, bound: set) -> list[list[Triple]]:
    """Every BGP's ``plan_bgp`` order, in tree order, from the variables
    definitely bound where it starts."""
    orders: list[list[Triple]] = []
    for child in group.patterns:
        if isinstance(child, BGP):
            orders.append(
                [triple for triple, __ in plan_bgp(graph, child.triples, bound)]
            )
            for triple in child.triples:
                bound |= triple.variables()
        elif isinstance(child, OptionalPattern):
            orders += term_orders(graph, child.pattern, set(bound))
        elif isinstance(child, UnionPattern):
            left, right = set(bound), set(bound)
            orders += term_orders(graph, child.left, left)
            orders += term_orders(graph, child.right, right)
            bound |= left & right
        elif isinstance(child, Group):
            orders += term_orders(graph, child, bound)
    return orders


def compiled_orders(group: CompiledGroup) -> list[list[tuple]]:
    """Every compiled BGP's pattern order as (slot | id) signatures."""
    orders: list[list[tuple]] = []
    for child in group.children:
        if isinstance(child, CompiledBGP):
            orders.append([
                tuple(
                    ("slot", slot) if slot is not None else ("id", term_id)
                    for slot, term_id in (
                        (pattern.s_slot, pattern.s_id),
                        (pattern.p_slot, pattern.p_id),
                        (pattern.o_slot, pattern.o_id),
                    )
                )
                for pattern in child.patterns
            ])
        elif isinstance(child, CompiledOptional):
            orders += compiled_orders(child.group)
        elif isinstance(child, CompiledUnion):
            orders += compiled_orders(child.left)
            orders += compiled_orders(child.right)
        elif isinstance(child, CompiledGroup):
            orders += compiled_orders(child)
    return orders


def explained_orders(text: str) -> list[list[str]]:
    """The ``join[k]`` lines of an EXPLAIN, one list per BGP."""
    orders: list[list[str]] = []
    for line in text.splitlines():
        match = _JOIN_LINE.match(line)
        if match is None:
            continue
        if match.group(1) == "1":
            orders.append([])
        orders[-1].append(match.group(2))
    return orders


def assert_parity(graph, query) -> None:
    plan = compile_query(query, graph)
    expected = term_orders(graph, query.where, set())
    assert compiled_orders(plan.root) == [
        [
            tuple(
                ("slot", plan.slot_of[term]) if isinstance(term, Variable)
                else ("id", graph.lookup_id(term))
                for term in triple
            )
            for triple in order
        ]
        for order in expected
    ]
    assert explained_orders(explain(graph, query)) == [
        [" ".join(serialize_term(term) for term in triple) for triple in order]
        for order in expected
        if order
    ]


def _segments(graph: Graph, directory):
    build_segments(graph, directory, shards=4)
    return SegmentedBackend(directory).open()


@pytest.fixture(scope="module")
def synthetic_graphs(tmp_path_factory):
    graph = load_synthetic_kb(2).graph
    backend = _segments(graph, tmp_path_factory.mktemp("parity_synthetic"))
    yield {"memory": graph, "segments": backend.graph_view()}
    backend.close()


@pytest.fixture(scope="module")
def generated_graphs(tmp_path_factory):
    graph = Graph(
        triple
        for triple in querygen.random_graph(random.Random(5), 60)
        if ABSENT not in triple
    )
    backend = _segments(graph, tmp_path_factory.mktemp("parity_generated"))
    yield {"memory": graph, "segments": backend.graph_view()}
    backend.close()


@pytest.mark.parametrize("kind", ["memory", "segments"])
@pytest.mark.parametrize("name", JOIN_QUERIES)
def test_join_queries(synthetic_graphs, kind, name):
    assert_parity(synthetic_graphs[kind], parse_query(JOIN_QUERIES[name]))


@pytest.mark.parametrize("kind", ["memory", "segments"])
def test_shapes(generated_graphs, kind):
    """Absent constants, repeated variables, several BGPs in one group,
    and a BGP after a UNION and an OPTIONAL, spelled out so every run
    covers them."""
    graph = generated_graphs[kind]
    a, b, c = querygen.IRIS[:3]
    x, y, z = querygen.VARIABLES
    shapes = [
        BGP((Triple(x, a, y), Triple(y, ABSENT, z), Triple(x, b, z))),
        BGP((Triple(x, x, y), Triple(y, a, x), Triple(z, z, z))),
        Group((
            BGP((Triple(x, a, y),)),
            BGP((Triple(y, b, z), Triple(z, c, x), Triple(x, a, b))),
        )),
        Group((
            BGP((Triple(x, a, y),)),
            UnionPattern(
                Group((BGP((Triple(y, b, z),)),)),
                Group((BGP((Triple(y, c, z), Triple(z, a, x))),)),
            ),
            OptionalPattern(Group((BGP((Triple(x, b, a),)),))),
            BGP((Triple(z, a, y), Triple(x, c, z), Triple(y, y, y))),
        )),
    ]
    for shape in shapes:
        where = shape if isinstance(shape, Group) else Group((shape,))
        assert_parity(graph, SelectQuery(projection=(), where=where))


@settings(deadline=None)
@given(query=querygen.select_queries)
def test_generated_queries(generated_graphs, query):
    for graph in generated_graphs.values():
        assert_parity(graph, query)
