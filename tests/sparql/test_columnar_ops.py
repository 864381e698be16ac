"""Per-operator property suites for the columnar batch engine.

Each batch operator — the column filters, the hash and sort-merge
joins — is exercised standalone against a naive row-space reference (the
nested-index-loop ``CompiledPattern.extend``, and per-row closure
application for filters), across empty-column, single-row, and
duplicate-key edge cases, with and without the numpy fast path.  The
merge join is numpy only (the planner never picks it without numpy), so
it runs on the numpy backend alone.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.rdf import Graph, IRI, Triple, Variable
from repro.sparql import columnar
from repro.sparql.columnar import (
    ColumnBatch,
    extend_cartesian,
    extend_hash,
    extend_index_loop,
    extend_merge,
    filter_id_equality,
    filter_memoized,
    scan_pattern,
)
from repro.sparql.compiler import (
    UNBOUND,
    CompiledPattern,
    compile_expression,
)
from repro.sparql.functions import effective_boolean
from repro.sparql.errors import SparqlTypeError

X, Y, Z = Variable("x"), Variable("y"), Variable("z")
SLOT_OF = {X: 0, Y: 1, Z: 2}
WIDTH = 3
IRIS = tuple(IRI(f"http://e/{name}") for name in "abcdef")


@pytest.fixture(params=["numpy", "pure"])
def backend(request, monkeypatch):
    """Run every operator test twice: vectorized and pure-python."""
    if request.param == "pure":
        monkeypatch.setattr(columnar, "_np", None)
    elif columnar._np is None:  # pragma: no cover - numpy always in image
        pytest.skip("numpy unavailable")
    return request.param


#: (backend, operator) pairs for the join edge cases: the merge join has
#: no pure-python run.
JOIN_CASES = [
    ("numpy", extend_hash),
    ("numpy", extend_merge),
    ("pure", extend_hash),
]


_graphs = st.lists(
    st.builds(Triple, st.sampled_from(IRIS), st.sampled_from(IRIS),
              st.sampled_from(IRIS)),
    min_size=0, max_size=25,
).map(Graph)

_pattern_triples = st.builds(
    Triple,
    st.one_of(st.sampled_from(IRIS), st.sampled_from((X, Y, Z))),
    st.one_of(st.sampled_from(IRIS), st.sampled_from((X, Y, Z))),
    st.one_of(st.sampled_from(IRIS), st.sampled_from((X, Y, Z))),
)


def _compiled(graph, triple):
    return CompiledPattern(triple, SLOT_OF, graph)


def _var_items(pattern):
    return [
        (position, slot)
        for position, slot in (
            (0, pattern.s_slot), (1, pattern.p_slot), (2, pattern.o_slot)
        )
        if slot is not None
    ]


def _make_batch(graph, bound_slots, key_ids):
    """Rows with ``bound_slots`` bound (cycling through ``key_ids``, which
    includes non-matching ids) and every other slot unbound."""
    rows = []
    for i, key in enumerate(key_ids):
        row = [UNBOUND] * WIDTH
        for offset, slot in enumerate(sorted(bound_slots)):
            row[slot] = key_ids[(i + offset) % len(key_ids)]
        rows.append(tuple(row))
    return ColumnBatch.from_rows(rows, WIDTH)


def _key_ids(graph, rng_ids):
    """Candidate join-key ids: every interned id plus some foreign ones."""
    interned = [graph.lookup_id(iri) for iri in IRIS]
    return [i for i in interned if i >= 0] + list(rng_ids) or [0]


_joins = st.tuples(
    _graphs,
    _pattern_triples,
    st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=30),
)


def _split(pattern, batch):
    """bound/free split exactly as join_pattern derives it."""
    items = _var_items(pattern)
    bound = [
        (position, slot)
        for position, slot in items
        if batch.length and batch.columns[slot][0] != UNBOUND
    ]
    free = [(position, slot) for position, slot in items if
            (position, slot) not in bound]
    unique_free, constraints = columnar._dedup_free(free)
    return bound, unique_free, constraints


def _reference(graph, batch, pattern):
    """The trusted row-space join: nested index loop over row tuples."""
    return Counter(pattern.extend(batch.rows(), graph))


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_joins)
def test_hash_join_matches_row_reference(data, backend):
    graph, triple, raw_keys = data
    pattern = _compiled(graph, triple)
    items = _var_items(pattern)
    assume(items)
    bound_slots = {slot for __, slot in items[:1]}  # first var position bound
    batch = _make_batch(graph, bound_slots, _key_ids(graph, raw_keys))
    bound, free, constraints = _split(pattern, batch)
    assume(bound)
    scan = scan_pattern(graph, pattern, constraints)
    out = extend_hash(batch, scan, bound, free)
    assert Counter(out.rows()) == _reference(graph, batch, pattern)


@pytest.mark.parametrize("backend", ["numpy"], indirect=True)
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_joins)
def test_merge_join_matches_row_reference(data, backend):
    graph, triple, raw_keys = data
    pattern = _compiled(graph, triple)
    items = _var_items(pattern)
    assume(items)
    bound_slots = {items[0][1]}
    batch = _make_batch(graph, bound_slots, _key_ids(graph, raw_keys))
    bound, free, constraints = _split(pattern, batch)
    assume(len(bound) == 1)  # merge join is single-key
    scan = scan_pattern(graph, pattern, constraints)
    out = extend_merge(batch, scan, bound, free)
    assert Counter(out.rows()) == _reference(graph, batch, pattern)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_joins)
def test_cartesian_matches_row_reference(data, backend):
    graph, triple, __ = data
    pattern = _compiled(graph, triple)
    items = _var_items(pattern)
    assume(items)
    batch = ColumnBatch.seed(WIDTH)
    bound, free, constraints = _split(pattern, batch)
    assert not bound
    scan = scan_pattern(graph, pattern, constraints)
    out = extend_cartesian(batch, scan, free)
    assert Counter(out.rows()) == _reference(graph, batch, pattern)


@pytest.mark.parametrize("backend,operator", JOIN_CASES, indirect=["backend"])
def test_join_empty_batch(operator, backend):
    graph = Graph([Triple(IRIS[0], IRIS[1], IRIS[2])])
    pattern = _compiled(graph, Triple(X, IRIS[1], Y))
    batch = ColumnBatch.empty(WIDTH)
    scan = scan_pattern(graph, pattern, [])
    out = operator(batch, scan, [(0, 0)], [(2, 1)])
    assert out.length == 0
    assert out.rows() == []


@pytest.mark.parametrize("backend,operator", JOIN_CASES, indirect=["backend"])
def test_join_single_row(operator, backend):
    graph = Graph([
        Triple(IRIS[0], IRIS[1], IRIS[2]),
        Triple(IRIS[0], IRIS[1], IRIS[3]),
    ])
    pattern = _compiled(graph, Triple(X, IRIS[1], Y))
    row = (graph.lookup_id(IRIS[0]), UNBOUND, UNBOUND)
    batch = ColumnBatch.from_rows([row], WIDTH)
    scan = scan_pattern(graph, pattern, [])
    out = operator(batch, scan, [(0, 0)], [(2, 1)])
    assert Counter(out.rows()) == _reference(graph, batch, pattern)
    assert out.length == 2


@pytest.mark.parametrize("backend,operator", JOIN_CASES, indirect=["backend"])
def test_join_duplicate_keys_multiply(operator, backend):
    """Probe-side duplicates each match independently (bag semantics)."""
    graph = Graph([
        Triple(IRIS[0], IRIS[1], IRIS[2]),
        Triple(IRIS[0], IRIS[1], IRIS[3]),
        Triple(IRIS[4], IRIS[1], IRIS[5]),
    ])
    pattern = _compiled(graph, Triple(X, IRIS[1], Y))
    a, e = graph.lookup_id(IRIS[0]), graph.lookup_id(IRIS[4])
    rows = [(a, UNBOUND, UNBOUND)] * 3 + [(e, UNBOUND, UNBOUND)] * 2
    batch = ColumnBatch.from_rows(rows, WIDTH)
    scan = scan_pattern(graph, pattern, [])
    out = operator(batch, scan, [(0, 0)], [(2, 1)])
    assert Counter(out.rows()) == _reference(graph, batch, pattern)
    assert out.length == 3 * 2 + 2 * 1


def test_repeated_free_variable_constrained(backend):
    """``?x ?p ?x`` with ?x free: only self-loops survive."""
    graph = Graph([
        Triple(IRIS[0], IRIS[1], IRIS[0]),  # self loop
        Triple(IRIS[2], IRIS[1], IRIS[3]),  # not a loop
    ])
    pattern = _compiled(graph, Triple(X, Y, X))
    batch = ColumnBatch.seed(WIDTH)
    bound, free, constraints = _split(pattern, batch)
    assert constraints  # the repeated ?x produced an equality constraint
    scan = scan_pattern(graph, pattern, constraints)
    out = extend_cartesian(batch, scan, free)
    assert Counter(out.rows()) == _reference(graph, batch, pattern)
    assert out.length == 1


# ---------------------------------------------------------------------------
# Columnar filters
# ---------------------------------------------------------------------------


def _row_filter_reference(rows, closure):
    kept = []
    for row in rows:
        try:
            if effective_boolean(closure(row)):
                kept.append(row)
        except SparqlTypeError:
            pass
    return kept


_filter_batches = st.lists(
    st.tuples(
        st.integers(min_value=-1, max_value=8),
        st.integers(min_value=-1, max_value=8),
        st.integers(min_value=-1, max_value=8),
    ),
    max_size=150,
)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(graph=_graphs, rows=_filter_batches, constant=st.sampled_from(IRIS),
       negate=st.booleans())
def test_id_equality_filter_matches_row_reference(
    graph, rows, constant, negate, backend
):
    from repro.sparql.ast import Comparison, Not, TermExpr

    expression = Comparison("=", TermExpr(X), TermExpr(constant))
    if negate:
        expression = Comparison("!=", TermExpr(X), TermExpr(constant))
    closure = compile_expression(expression, SLOT_OF, graph)
    assert closure.constant_id == graph.lookup_id(constant), (
        "expected the id-equality fast path"
    )
    batch = ColumnBatch.from_rows(rows, WIDTH)
    out = filter_id_equality(batch, closure)
    # Reference: apply the same closure row-wise under SPARQL scoping.
    # Rows with ids the graph never interned can't be decoded, but the
    # fast path never decodes — both paths agree by construction.
    expected = []
    for row in rows:
        value = row[0]
        if value == UNBOUND:
            continue
        keep = (value != closure.constant_id) if negate else (
            value == closure.constant_id
        )
        if keep:
            expected.append(row)
    assert out.rows() == expected


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(graph=_graphs, choices=st.lists(st.integers(0, 5), max_size=120),
       data=st.data())
def test_memoized_filter_matches_row_reference(graph, choices, data, backend):
    """General filters memoized per distinct key equal per-row evaluation."""
    from tests.sparql import querygen

    expression = data.draw(querygen._expressions)
    slots_used: set[int] = set()
    closure = compile_expression(expression, SLOT_OF, graph, slots_used)
    closure.slots_used = frozenset(slots_used)
    # Rows whose ids are all real (decodable) dictionary ids.
    interned = sorted(
        {graph.lookup_id(iri) for iri in IRIS} - {-1}
    ) or [UNBOUND]
    rows = [
        tuple(
            interned[(c + offset) % len(interned)]
            if (c + offset) % 3 else UNBOUND
            for offset in range(WIDTH)
        )
        for c in choices
    ]
    batch = ColumnBatch.from_rows(rows, WIDTH)
    out = filter_memoized(batch, closure, WIDTH)
    assert out.rows() == _row_filter_reference(rows, closure)


def test_memoized_filter_constant_expression(backend):
    """An expression reading no slots evaluates once for the whole batch."""
    from repro.sparql.ast import Comparison, TermExpr
    from repro.rdf.terms import Literal
    from repro.rdf.datatypes import XSD_INTEGER

    graph = Graph()
    one = Literal("1", datatype=XSD_INTEGER)
    two = Literal("2", datatype=XSD_INTEGER)
    true_closure = compile_expression(
        Comparison("<", TermExpr(one), TermExpr(two)), SLOT_OF, graph
    )
    true_closure.slots_used = frozenset()
    false_closure = compile_expression(
        Comparison(">", TermExpr(one), TermExpr(two)), SLOT_OF, graph
    )
    false_closure.slots_used = frozenset()
    batch = ColumnBatch.from_rows([(UNBOUND,) * WIDTH] * 7, WIDTH)
    assert filter_memoized(batch, true_closure, WIDTH).length == 7
    assert filter_memoized(batch, false_closure, WIDTH).length == 0


def test_filter_empty_batch(backend):
    from repro.sparql.ast import Comparison, TermExpr

    graph = Graph([Triple(IRIS[0], IRIS[1], IRIS[2])])
    closure = compile_expression(
        Comparison("=", TermExpr(X), TermExpr(IRIS[0])), SLOT_OF, graph
    )
    batch = ColumnBatch.empty(WIDTH)
    assert filter_id_equality(batch, closure).length == 0
    closure.slots_used = frozenset({0})
    assert filter_memoized(batch, closure, WIDTH).length == 0


# ---------------------------------------------------------------------------
# Batch container mechanics
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    rows=st.lists(
        st.tuples(st.integers(-1, 50), st.integers(-1, 50),
                  st.integers(-1, 50)),
        max_size=120,
    ),
    data=st.data(),
)
def test_gather_roundtrip(rows, data, backend):
    batch = ColumnBatch.from_rows(rows, WIDTH)
    indexes = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=max(len(rows) - 1, 0)),
            max_size=200,
        )
        if rows
        else st.just([])
    )
    out = batch.gather(indexes)
    assert out.rows() == [rows[i] for i in indexes]


def test_index_loop_fallback_equals_reference(backend):
    graph = Graph([
        Triple(IRIS[0], IRIS[1], IRIS[2]),
        Triple(IRIS[3], IRIS[1], IRIS[4]),
    ])
    pattern = _compiled(graph, Triple(X, IRIS[1], Y))
    # Mixed boundness: one row binds ?x, the other does not.
    rows = [
        (graph.lookup_id(IRIS[0]), UNBOUND, UNBOUND),
        (UNBOUND, UNBOUND, UNBOUND),
    ]
    batch = ColumnBatch.from_rows(rows, WIDTH)
    out = extend_index_loop(graph, batch, pattern)
    assert Counter(out.rows()) == _reference(graph, batch, pattern)
