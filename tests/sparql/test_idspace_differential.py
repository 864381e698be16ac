"""Differential tests: id-space compiled engine vs the term-space oracle.

The compiled engine (:mod:`repro.sparql.compiler`) must be observationally
identical to the term-space evaluator it replaced on the hot path, which is
kept (``SparqlEngine(idspace=False)``) exactly to serve as the oracle here.
Hypothesis drives both engines over random small graphs and random queries
covering every pattern feature the subset supports — BGP joins, OPTIONAL,
UNION, FILTER, ORDER BY, DISTINCT, LIMIT/OFFSET, COUNT — and asserts the
solution multisets agree.  Row *order* is compared only when the query
constrains it (ORDER BY): SPARQL result sets are otherwise unordered, and
the engines enumerate joins differently.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf import Graph, IRI, Triple, Variable
from repro.rdf.datatypes import XSD_INTEGER
from repro.rdf.terms import Literal
from repro.sparql.ast import (
    AskQuery,
    BGP,
    BooleanOp,
    Comparison,
    CountAggregate,
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
from repro.sparql.engine import SparqlEngine

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_iris = st.sampled_from([IRI(f"http://e/{name}") for name in "abcdef"])
_literals = st.sampled_from(
    [Literal(str(n), datatype=XSD_INTEGER) for n in range(4)]
    + [Literal("snow"), Literal("red")]
)
_objects = st.one_of(_iris, _literals)
_graphs = st.lists(
    st.builds(Triple, _iris, _iris, _objects), min_size=0, max_size=18
).map(Graph)

_variables = st.sampled_from([Variable("x"), Variable("y"), Variable("z")])
_subject_slots = st.one_of(_iris, _variables)
_object_slots = st.one_of(_objects, _variables)
_triples = st.builds(Triple, _subject_slots, _subject_slots, _object_slots)
_bgps = st.lists(_triples, min_size=1, max_size=3).map(
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
_bound_calls = _variables.map(
    lambda v: FunctionCall("BOUND", (TermExpr(v),))
)
_expressions = st.one_of(
    _comparisons,
    _bound_calls,
    st.builds(Not, _comparisons),
    st.builds(BooleanOp, st.sampled_from(["&&", "||"]), _comparisons, _comparisons),
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
    # A group whose only children are filters never binds anything; keep at
    # least one BGP so queries are not trivially empty.
    return st.tuples(_bgps, children).map(
        lambda pair: Group((pair[0], *pair[1]))
    )


_groups = _group_strategy(depth=1)

_projections = st.lists(_variables, min_size=1, max_size=3, unique=True).map(tuple)
_orderings = st.lists(
    st.builds(OrderCondition, _var_exprs, st.booleans()), min_size=0, max_size=2
).map(tuple)

_select_queries = st.builds(
    SelectQuery,
    projection=_projections,
    where=_groups,
    distinct=st.booleans(),
    order_by=_orderings,
    limit=st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
    offset=st.integers(min_value=0, max_value=3),
)


def _engines(graph):
    return (
        SparqlEngine(graph, cache_size=0, idspace=True),
        SparqlEngine(graph, cache_size=0, idspace=False),
    )


def _multiset(result):
    return Counter(result.rows)


# ---------------------------------------------------------------------------
# Differential properties
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(_graphs, _select_queries)
def test_select_multisets_agree(graph, query):
    idspace, oracle = _engines(graph)
    expected = oracle.query(query)
    actual = idspace.query(query)
    assert actual.variables == expected.variables
    if query.order_by or query.limit is not None or query.offset:
        # Slicing an unordered (or partially ordered) result set is only
        # comparable as a multiset drawn from the unsliced oracle rows.
        unsliced = SelectQuery(
            projection=query.projection,
            where=query.where,
            distinct=query.distinct,
        )
        full = _multiset(oracle.query(unsliced))
        actual_rows = _multiset(actual)
        assert sum(actual_rows.values()) == len(expected.rows)
        assert all(full[row] >= count for row, count in actual_rows.items())
    else:
        assert _multiset(actual) == _multiset(expected)


@settings(max_examples=150, deadline=None)
@given(_graphs, _groups)
def test_plain_bgp_tree_multisets_agree(graph, where):
    """No modifiers at all: the multisets must match exactly."""
    query = SelectQuery(projection=(), where=where)  # SELECT *
    idspace, oracle = _engines(graph)
    actual = idspace.query(query)
    expected = oracle.query(query)
    assert actual.variables == expected.variables
    assert _multiset(actual) == _multiset(expected)


@settings(max_examples=120, deadline=None)
@given(_graphs, _groups)
def test_ask_agrees(graph, where):
    idspace, oracle = _engines(graph)
    query = AskQuery(where=where)
    assert idspace.query(query).value == oracle.query(query).value


@settings(max_examples=100, deadline=None)
@given(_graphs, _groups, st.booleans(), st.one_of(st.none(), _variables))
def test_count_agrees(graph, where, distinct, variable):
    idspace, oracle = _engines(graph)
    query = SelectQuery(
        projection=(CountAggregate(variable, distinct, Variable("n")),),
        where=where,
    )
    assert idspace.query(query).rows == oracle.query(query).rows


@settings(max_examples=100, deadline=None)
@given(_graphs, _projections, _groups, _orderings)
def test_order_by_produces_oracle_order(graph, projection, where, order_by):
    """With a total projection ordering the sorted row lists must agree."""
    idspace, oracle = _engines(graph)
    query = SelectQuery(projection=projection, where=where, order_by=order_by)
    actual = idspace.query(query)
    expected = oracle.query(query)
    if order_by:
        # The compiled engine must respect ORDER BY keys exactly; ties may
        # appear in either order (both engines use a stable sort over
        # differently-ordered inputs), so compare the key sequence and the
        # overall multiset rather than raw row lists.
        assert _multiset(actual) == _multiset(expected)
        key_vars = [
            condition.expression.term
            for condition in order_by
            if isinstance(condition.expression, TermExpr)
        ]

        def keys(result):
            positions = [
                result.variables.index(v)
                for v in key_vars
                if v in result.variables
            ]
            return [tuple(row[i] for i in positions) for row in result.rows]

        assert keys(actual) == keys(expected)
    else:
        assert _multiset(actual) == _multiset(expected)


@settings(max_examples=150, deadline=None)
@given(_graphs, _groups)
def test_hash_join_operator_agrees(graph, where):
    """Force each join route in turn (querygen.JOIN_ROUTES) on tiny
    inputs and re-check equality: the hash join, the merge join and the
    index loop all run every generated query."""
    from tests.sparql import querygen

    query = SelectQuery(projection=(), where=where)
    idspace, oracle = _engines(graph)
    expected = oracle.query(query)
    for route in querygen.JOIN_ROUTES:
        with querygen.join_route(*route):
            actual = idspace.query(query)
        assert actual.variables == expected.variables
        assert _multiset(actual) == _multiset(expected)


def test_negated_id_equality_inside_not():
    """Regression: ``FILTER(!(?x = <iri>))`` nests the id-equality fast
    path under ``Not``, whose constant id must resolve like a top-level
    one — an unresolved ``-1`` made the equality always-false and the
    negation always-true.
    """
    a = IRI("http://e/a")
    x = Variable("x")
    graph = Graph([Triple(a, a, a)])
    where = Group((
        BGP((Triple(a, x, a),)),
        Filter(Not(Comparison("=", TermExpr(x), TermExpr(a)))),
    ))
    query = SelectQuery(projection=(), where=where)
    idspace, oracle = _engines(graph)
    assert idspace.query(query).rows == oracle.query(query).rows == ()


@settings(max_examples=80, deadline=None)
@given(_graphs, _select_queries)
def test_idspace_agrees_after_mutation(graph, query):
    """Results stay aligned with the oracle across a graph mutation."""
    idspace, oracle = _engines(graph)
    first_id = idspace.query(query)
    first_oracle = oracle.query(query)
    assert _multiset(first_id) == _multiset(first_oracle) or (
        query.order_by or query.limit is not None or query.offset
    )
    graph.add(
        Triple(IRI("http://e/new"), IRI("http://e/a"), IRI("http://e/b"))
    )
    second_id = idspace.query(query)
    second_oracle = oracle.query(query)
    assert len(second_id.rows) == len(second_oracle.rows)
    if not (query.order_by or query.limit is not None or query.offset):
        assert _multiset(second_id) == _multiset(second_oracle)
