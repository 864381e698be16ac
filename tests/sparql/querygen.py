"""Seeded random query generation for the columnar differential suite.

Two generators share one vocabulary:

* hypothesis strategies (:data:`graphs`, :data:`select_queries`,
  :data:`conjunctive_queries`, :data:`groups`) for the property tests —
  shrinking keeps counterexamples small;
* a plain seeded generator (:func:`random_workload`) built on
  :class:`random.Random`, used where a reproducible fixed-size workload
  beats shrinkability (the nightly sweep and the bench guard).

The query space is the engine subset the paper's pipeline emits: BGPs
(1-4 patterns over a small shared vocabulary, so joins actually connect),
FILTERs (comparisons, BOUND, ``!``/``&&``/``||``), OPTIONAL-free
conjunctive shapes plus optional OPTIONAL/UNION nesting, ORDER BY,
DISTINCT, and LIMIT/OFFSET.
"""

from __future__ import annotations

import random
from contextlib import contextmanager

from hypothesis import strategies as st

from repro.rdf import Graph, IRI, Triple, Variable
from repro.rdf.datatypes import (
    XSD_BOOLEAN,
    XSD_DATE,
    XSD_DATETIME,
    XSD_DOUBLE,
    XSD_GYEAR,
    XSD_INTEGER,
    XSD_STRING,
)
from repro.rdf.terms import Literal
from repro.sparql.ast import (
    BGP,
    BooleanOp,
    Comparison,
    Filter,
    FunctionCall,
    Group,
    Not,
    OptionalPattern,
    OrderCondition,
    SelectQuery,
    TermExpr,
    UnionPattern,
)

IRIS = tuple(IRI(f"http://e/{name}") for name in "abcdef")
#: Besides plain values, literals whose ORDER BY keys tie or cross kinds:
#: a double equal to an integer, language-tagged and xsd:string forms of
#: a plain string, the special doubles, a date with a dateTime on the
#: same day and its gYear, and a boolean.
LITERALS = tuple(
    [Literal(str(n), datatype=XSD_INTEGER) for n in range(4)]
    + [Literal("snow"), Literal("red")]
    + [
        Literal("1.0", datatype=XSD_DOUBLE),
        Literal("snow", language="en"),
        Literal("snow", datatype=XSD_STRING),
        *(
            Literal(special, datatype=XSD_DOUBLE)
            for special in ("NaN", "INF", "-INF", "-0.0")
        ),
        Literal("2001-05-04", datatype=XSD_DATE),
        Literal("2001-05-04T10:30:00", datatype=XSD_DATETIME),
        Literal("2001", datatype=XSD_GYEAR),
        Literal("true", datatype=XSD_BOOLEAN),
    ]
)
VARIABLES = (Variable("x"), Variable("y"), Variable("z"))

# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

_iris = st.sampled_from(IRIS)
_literals = st.sampled_from(LITERALS)
_objects = st.one_of(_iris, _literals)

graphs = st.lists(
    st.builds(Triple, _iris, _iris, _objects), min_size=0, max_size=20
).map(Graph)

_variables = st.sampled_from(VARIABLES)
_subject_slots = st.one_of(_iris, _variables)
_object_slots = st.one_of(_objects, _variables)
_triples = st.builds(Triple, _subject_slots, _subject_slots, _object_slots)
_bgps = st.lists(_triples, min_size=1, max_size=4).map(
    lambda ts: BGP(tuple(ts))
)

_var_exprs = _variables.map(TermExpr)
_const_exprs = st.one_of(_iris, _literals).map(TermExpr)
_atoms = st.one_of(_var_exprs, _const_exprs)
_comparisons = st.builds(
    Comparison,
    st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
    _atoms,
    _atoms,
)
_expressions = st.one_of(
    _comparisons,
    _variables.map(lambda v: FunctionCall("BOUND", (TermExpr(v),))),
    st.builds(Not, _comparisons),
    st.builds(
        BooleanOp, st.sampled_from(["&&", "||"]), _comparisons, _comparisons
    ),
)
_filters = _expressions.map(Filter)


def _group_strategy(depth: int):
    children = st.lists(
        st.one_of(
            _bgps,
            _filters,
            *(
                (
                    _group_strategy(depth - 1).map(OptionalPattern),
                    st.builds(
                        UnionPattern,
                        _group_strategy(depth - 1),
                        _group_strategy(depth - 1),
                    ),
                )
                if depth > 0
                else ()
            ),
        ),
        min_size=1,
        max_size=3,
    )
    # Keep at least one BGP so queries are not trivially empty.
    return st.tuples(_bgps, children).map(
        lambda pair: Group((pair[0], *pair[1]))
    )


groups = _group_strategy(depth=1)

#: OPTIONAL/UNION-free conjunctive groups: BGPs and filters only — the
#: shape where every batch stays homogeneously bound and the columnar
#: joins never take the mixed-column fallback.
conjunctive_groups = st.tuples(
    _bgps, st.lists(st.one_of(_bgps, _filters), min_size=0, max_size=3)
).map(lambda pair: Group((pair[0], *pair[1])))

_projections = st.lists(_variables, min_size=1, max_size=3, unique=True).map(
    tuple
)
_orderings = st.lists(
    st.builds(OrderCondition, _var_exprs, st.booleans()),
    min_size=0,
    max_size=2,
).map(tuple)


def _query_strategy(where):
    return st.builds(
        SelectQuery,
        projection=_projections,
        where=where,
        distinct=st.booleans(),
        order_by=_orderings,
        limit=st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
        offset=st.integers(min_value=0, max_value=3),
    )


select_queries = _query_strategy(groups)
conjunctive_queries = _query_strategy(conjunctive_groups)


# ---------------------------------------------------------------------------
# Forced join routes
# ---------------------------------------------------------------------------

#: (scan factor, merge minimum) pairs that together send every bound join
#: of a query down each route: factor 0 takes the index loop for any
#: non-empty scan, 10**9 a batch join, which merges (numpy) at a merge
#: minimum of 1 and hashes at 10**9.  Generated inputs are tiny, so the
#: production constants alone would pick one route per pattern.
JOIN_ROUTES = tuple(
    (factor, merge_min) for factor in (0, 10**9) for merge_min in (1, 10**9)
)


@contextmanager
def join_route(factor: int, merge_min: int):
    """Run the block with the engine's join admission forced to one
    :data:`JOIN_ROUTES` entry; the production constants come back after."""
    from repro.sparql import compiler, planner

    saved = compiler.HASH_JOIN_MAX_SCAN_FACTOR, planner.MERGE_JOIN_MIN_ROWS
    compiler.HASH_JOIN_MAX_SCAN_FACTOR = factor
    planner.MERGE_JOIN_MIN_ROWS = merge_min
    try:
        yield
    finally:
        compiler.HASH_JOIN_MAX_SCAN_FACTOR, planner.MERGE_JOIN_MIN_ROWS = saved


# ---------------------------------------------------------------------------
# Plain seeded generation (fixed-size workloads)
# ---------------------------------------------------------------------------


def random_graph(rng: random.Random, size: int = 40) -> Graph:
    graph = Graph()
    for __ in range(size):
        graph.add(
            Triple(
                rng.choice(IRIS),
                rng.choice(IRIS),
                rng.choice(IRIS + LITERALS),
            )
        )
    return graph


def _random_slot(rng: random.Random, objects: bool):
    if rng.random() < 0.5:
        return rng.choice(VARIABLES)
    return rng.choice(IRIS + LITERALS) if objects else rng.choice(IRIS)


def _random_bgp(rng: random.Random) -> BGP:
    return BGP(
        tuple(
            Triple(
                _random_slot(rng, objects=False),
                _random_slot(rng, objects=False),
                _random_slot(rng, objects=True),
            )
            for __ in range(rng.randint(1, 4))
        )
    )


def _random_expression(rng: random.Random):
    atom = lambda: TermExpr(
        rng.choice(VARIABLES)
        if rng.random() < 0.6
        else rng.choice(IRIS + LITERALS)
    )
    comparison = lambda: Comparison(
        rng.choice(["=", "!=", "<", "<=", ">", ">="]), atom(), atom()
    )
    roll = rng.random()
    if roll < 0.45:
        return comparison()
    if roll < 0.6:
        return FunctionCall("BOUND", (TermExpr(rng.choice(VARIABLES)),))
    if roll < 0.8:
        return Not(comparison())
    return BooleanOp(rng.choice(["&&", "||"]), comparison(), comparison())


def random_query(rng: random.Random, conjunctive: bool = True) -> SelectQuery:
    children: list = [_random_bgp(rng)]
    for __ in range(rng.randint(0, 2)):
        roll = rng.random()
        if roll < 0.4:
            children.append(_random_bgp(rng))
        elif roll < 0.7 or conjunctive:
            children.append(Filter(_random_expression(rng)))
        elif roll < 0.85:
            children.append(OptionalPattern(Group((_random_bgp(rng),))))
        else:
            children.append(
                UnionPattern(
                    Group((_random_bgp(rng),)), Group((_random_bgp(rng),))
                )
            )
    where = Group(tuple(children))
    variable_pool = list(VARIABLES)
    rng.shuffle(variable_pool)
    projection = tuple(variable_pool[: rng.randint(1, 3)])
    order_by = tuple(
        OrderCondition(TermExpr(rng.choice(VARIABLES)), rng.random() < 0.5)
        for __ in range(rng.randint(0, 2))
    )
    return SelectQuery(
        projection=projection,
        where=where,
        distinct=rng.random() < 0.4,
        order_by=order_by,
        limit=rng.randint(0, 8) if rng.random() < 0.4 else None,
        offset=rng.randint(0, 3) if rng.random() < 0.3 else 0,
    )


def random_workload(
    seed: int, queries: int, graph_size: int = 40, conjunctive: bool = False
) -> tuple[Graph, list[SelectQuery]]:
    """A reproducible (graph, queries) pair for differential sweeps."""
    rng = random.Random(seed)
    graph = random_graph(rng, graph_size)
    return graph, [
        random_query(rng, conjunctive=conjunctive) for __ in range(queries)
    ]


# ---------------------------------------------------------------------------
# Star-shaped generation (scatter differential + slicing-guard sweeps)
# ---------------------------------------------------------------------------


def random_star_query(
    rng: random.Random, computed_order: bool = False
) -> SelectQuery:
    """A subject-star query (every pattern's subject is ``?x``).

    With ``computed_order=True`` the ORDER BY keys are *computed*
    expressions (BOUND / negated comparisons) instead of plain terms, and
    a LIMIT is always present — the shape the scatter layer's slicing
    guard must reject rather than mis-route.
    """
    subject = Variable("x")
    triples = tuple(
        Triple(
            subject,
            rng.choice(IRIS),
            _random_slot(rng, objects=True),
        )
        for __ in range(rng.randint(1, 3))
    )
    children: list = [BGP(triples)]
    if rng.random() < 0.4:
        children.append(Filter(_random_expression(rng)))
    if computed_order:
        variable = rng.choice(VARIABLES)
        expression = (
            FunctionCall("BOUND", (TermExpr(variable),))
            if rng.random() < 0.5
            else Not(
                Comparison("=", TermExpr(variable), TermExpr(rng.choice(IRIS)))
            )
        )
        order_by = (OrderCondition(expression, rng.random() < 0.5),)
        limit = rng.randint(1, 5)
    else:
        order_by = tuple(
            OrderCondition(TermExpr(rng.choice(VARIABLES)), rng.random() < 0.5)
            for __ in range(rng.randint(0, 2))
        )
        limit = rng.randint(0, 8) if order_by and rng.random() < 0.5 else None
    variable_pool = list(VARIABLES)
    rng.shuffle(variable_pool)
    return SelectQuery(
        projection=tuple(variable_pool[: rng.randint(1, 3)]),
        where=Group(tuple(children)),
        distinct=rng.random() < 0.4,
        order_by=order_by,
        limit=limit,
        offset=rng.randint(0, 3) if limit is not None else 0,
    )


def random_two_star_query(rng: random.Random, graph: Graph) -> SelectQuery:
    """A two-star conjunction over ``graph``: stars on ``?x`` and ``?y``,
    connected either subject-to-subject (an ``?x``-pattern whose object is
    ``?y``) or through a shared object variable ``?z``.

    The stars meet in ``graph``: the join edge is drawn first, as a triple
    ``sx p sy`` whose object is a subject, or as two triples ``sx p o``
    and ``sy q o`` sharing an object; then every constant pattern of a
    star is a triple of its subject.  So ``?x = sx, ?y = sy`` answers the
    conjunction before any FILTER, and the lead star ships join keys.
    """
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    triples = list(graph)
    by_subject: dict = {}
    for triple in triples:
        by_subject.setdefault(triple.subject, []).append(triple)
    links = [triple for triple in triples if triple.object in by_subject]
    if links and rng.random() < 0.5:
        link = rng.choice(links)
        sx, sy = link.subject, link.object
        edge_x, edge_y = [Triple(x, link.predicate, y)], []
    else:
        left = rng.choice(triples)
        right = rng.choice(
            [triple for triple in triples if triple.object == left.object]
        )
        sx, sy = left.subject, right.subject
        edge_x = [Triple(x, left.predicate, z)]
        edge_y = [Triple(y, right.predicate, z)]
    star_x = [
        Triple(x, triple.predicate, triple.object)
        for triple in rng.choices(by_subject[sx], k=rng.randint(1, 2))
    ] + edge_x
    star_y = [
        Triple(y, triple.predicate, triple.object)
        for triple in rng.choices(by_subject[sy], k=rng.randint(1, 2))
    ] + edge_y
    children: list = [BGP(tuple(star_x)), BGP(tuple(star_y))]
    if rng.random() < 0.3:
        children.append(Filter(_random_expression(rng)))
    order_by = tuple(
        OrderCondition(TermExpr(rng.choice(VARIABLES)), rng.random() < 0.5)
        for __ in range(rng.randint(0, 2))
    )
    limit = rng.randint(0, 8) if order_by and rng.random() < 0.5 else None
    variable_pool = list(VARIABLES)
    rng.shuffle(variable_pool)
    return SelectQuery(
        projection=tuple(variable_pool[: rng.randint(1, 3)]),
        where=Group(tuple(children)),
        distinct=rng.random() < 0.4,
        order_by=order_by,
        limit=limit,
        offset=rng.randint(0, 3) if limit is not None else 0,
    )


def random_two_star_workload(
    seed: int, queries: int, graph_size: int = 60
) -> tuple[Graph, list[SelectQuery]]:
    """A reproducible (graph, two-star queries) pair for the semi-join
    differential sweep."""
    rng = random.Random(seed)
    graph = random_graph(rng, graph_size)
    return graph, [random_two_star_query(rng, graph) for __ in range(queries)]


# ---------------------------------------------------------------------------
# ORDER BY generation (rank-order differential over segments)
# ---------------------------------------------------------------------------


def _computed_order_expressions(variable: Variable, constant):
    """The computed ORDER BY keys over ``variable``: each either maps many
    terms to one value (ties) or type-errors on some rows (unorderable)."""
    return (
        FunctionCall("STR", (TermExpr(variable),)),
        FunctionCall("BOUND", (TermExpr(variable),)),
        FunctionCall("DATATYPE", (TermExpr(variable),)),
        FunctionCall("LCASE", (TermExpr(variable),)),
        Comparison("<", TermExpr(variable), TermExpr(constant)),
        Not(Comparison("=", TermExpr(variable), TermExpr(constant))),
    )


def _random_order_expression(rng: random.Random):
    variable = rng.choice(VARIABLES)
    roll = rng.random()
    if roll < 0.55:
        return TermExpr(variable)
    if roll < 0.65:
        return TermExpr(rng.choice(IRIS + LITERALS))  # constant: drops out
    return rng.choice(
        _computed_order_expressions(variable, rng.choice(IRIS + LITERALS))
    )


def _wide_star_where(rng: random.Random) -> Group:
    """``?x ?p ?y`` (every triple: large enough to fan out across shards
    and to reach the vectorized sort), optionally filtered."""
    x, y, __ = VARIABLES
    children: list = [BGP((Triple(x, Variable("p"), y),))]
    if rng.random() < 0.3:
        children.append(Filter(_random_expression(rng)))
    return Group(tuple(children))


def _optional_where(rng: random.Random) -> Group:
    """``?x ?p ?y`` (every triple, so results reach the vectorized sort)
    with ``?z`` bound only where ``?y`` has a matching triple."""
    x, y, z = VARIABLES
    head = Triple(x, Variable("p"), y)
    tail = Triple(y, rng.choice(IRIS), z)
    return Group((BGP((head,)), OptionalPattern(Group((BGP((tail,)),)))))


def random_order_query(rng: random.Random, graph: Graph) -> SelectQuery:
    """An ORDER BY query over ``graph`` for the rank-order differential.

    One or two keys, each ASC or DESC and each a plain variable, a
    constant or a computed expression, over a subject star, a two-star
    join that meets in ``graph``, a star over every triple, an OPTIONAL
    that leaves the key unbound on some rows, or a general nested group;
    with or without DISTINCT and LIMIT/OFFSET.
    """
    roll = rng.random()
    if roll < 0.2:
        base = random_star_query(rng)
    elif roll < 0.35:
        base = random_two_star_query(rng, graph)
    elif roll < 0.55:
        base = SelectQuery(
            projection=VARIABLES[: rng.randint(1, 3)],
            where=_wide_star_where(rng),
        )
    elif roll < 0.75:
        base = SelectQuery(
            projection=VARIABLES[: rng.randint(1, 3)],
            where=_optional_where(rng),
        )
    else:
        base = random_query(rng, conjunctive=False)
    order_by = tuple(
        OrderCondition(_random_order_expression(rng), rng.random() < 0.5)
        for __ in range(rng.randint(1, 2))
    )
    limit = rng.randint(0, 8) if rng.random() < 0.4 else None
    return SelectQuery(
        projection=base.projection,
        where=base.where,
        distinct=rng.random() < 0.4,
        order_by=order_by,
        limit=limit,
        offset=rng.randint(0, 3) if rng.random() < 0.3 else 0,
    )


_order_expressions = st.one_of(
    _var_exprs,
    _const_exprs,
    st.builds(
        lambda variable, constant, pick: _computed_order_expressions(
            variable, constant
        )[pick],
        _variables,
        st.one_of(_iris, _literals),
        st.integers(min_value=0, max_value=5),
    ),
)

#: ORDER BY queries with one or two plain, constant or computed keys.
order_queries = st.builds(
    SelectQuery,
    projection=_projections,
    where=st.one_of(
        groups,
        st.builds(_wide_star_where, st.randoms()),
        st.builds(_optional_where, st.randoms()),
    ),
    distinct=st.booleans(),
    order_by=st.lists(
        st.builds(OrderCondition, _order_expressions, st.booleans()),
        min_size=1,
        max_size=2,
    ).map(tuple),
    limit=st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
    offset=st.integers(min_value=0, max_value=3),
)
