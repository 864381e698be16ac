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

from hypothesis import strategies as st

from repro.rdf import Graph, IRI, Triple, Variable
from repro.rdf.datatypes import XSD_INTEGER
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
LITERALS = tuple(
    [Literal(str(n), datatype=XSD_INTEGER) for n in range(4)]
    + [Literal("snow"), Literal("red")]
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


def random_two_star_query(rng: random.Random) -> SelectQuery:
    """A two-star conjunction: stars on ``?x`` and ``?y``, connected
    either subject-to-subject (an ``?x``-pattern whose object is ``?y`` —
    the semi-join *ship-to-owner* path) or through a shared object
    variable ``?z`` (the *broadcast* path)."""
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    star_x = [
        Triple(x, rng.choice(IRIS), rng.choice(IRIS + LITERALS))
        for __ in range(rng.randint(1, 2))
    ]
    star_y = [
        Triple(y, rng.choice(IRIS), rng.choice(IRIS + LITERALS))
        for __ in range(rng.randint(1, 2))
    ]
    if rng.random() < 0.5:
        star_x.append(Triple(x, rng.choice(IRIS), y))
    else:
        star_x.append(Triple(x, rng.choice(IRIS), z))
        star_y.append(Triple(y, rng.choice(IRIS), z))
    children: list = [BGP(tuple(star_x)), BGP(tuple(star_y))]
    if rng.random() < 0.4:
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
    return graph, [random_two_star_query(rng) for __ in range(queries)]
