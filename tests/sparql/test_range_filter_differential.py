"""Rank-space range FILTERs over segments: byte-identical to the term oracle.

A top-level ``FILTER(?v OP c)`` — OP one of ``<``, ``<=``, ``>``, ``>=``,
``c`` a number or a date — runs over a segment dictionary as an interval
test on the order ranks it ships
(:func:`repro.sparql.columnar.filter_rank_interval`), not as a decode and
a value comparison per id.  That is exact only if the terms that pass
form one interval of ranks: the invariant stated in
:mod:`repro.rdf.order`, checked here over the literal pool first, then
end to end.

The object columns mix ``querygen.LITERALS`` with numbers that tie across
datatypes, infinities and NaN, a malformed integer and a malformed date,
booleans, strings, dates, dateTimes, gYears (three outside the years a
date can hold), IRIs and a blank node.  The
constants are present in the dictionary, absent between two ranks, and
below or above every number or date; OPTIONAL leaves cells unbound.
Every setup — 1, 4 and 8 shards and 4 without the object partition,
scatter on and off, numpy on and off — compares rows byte for byte with
the term oracle on an ``InMemoryBackend`` over the same graph.
"""

import operator
import random
from array import array

import pytest
from hypothesis import given, strategies as st

from repro.kb import InMemoryBackend, SegmentedBackend, build_segments
from repro.kb import segment
from repro.obs.metrics import MetricsRegistry
from repro.rdf import Graph, IRI, Triple
from repro.rdf.datatypes import (
    XSD_BOOLEAN,
    XSD_DATE,
    XSD_DATETIME,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_GYEAR,
    XSD_INTEGER,
    XSD_STRING,
)
from repro.rdf.order import DATE_KIND, NUMBER_KIND, order_key
from repro.rdf.terms import BNode, Literal
from repro.sparql import ScatterGatherExecutor, columnar, parse_query
from repro.sparql.compiler import RangeFilter
from repro.sparql.engine import SparqlEngine
from repro.sparql.errors import SparqlTypeError
from repro.sparql.functions import compare_values

from tests.sparql import querygen
from tests.sparql.test_rank_order_differential import _write_parent_dictionary

OPERATORS = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}

#: Besides querygen's pool (which holds 0-3, 1.0, NaN, INF, -INF, -0.0,
#: a date, a dateTime on that day, their gYear and ``true``).
EXTRA_LITERALS = (
    Literal("2.5", datatype=XSD_DECIMAL),
    Literal("2.50", datatype=XSD_DECIMAL),
    Literal("2.5E0", datatype=XSD_DOUBLE),
    Literal("-7", datatype=XSD_INTEGER),
    Literal("10", datatype=XSD_INTEGER),
    Literal("1e3", datatype=XSD_DOUBLE),
    Literal("abc", datatype=XSD_INTEGER),
    Literal("2001-02-30", datatype=XSD_DATE),
    Literal("false", datatype=XSD_BOOLEAN),
    Literal("1", datatype=XSD_BOOLEAN),
    Literal("0", datatype=XSD_BOOLEAN),
    Literal("10"),
    Literal("2.5", language="en"),
    Literal("abc", datatype=XSD_STRING),
    Literal("1999-12-31", datatype=XSD_DATE),
    Literal("2001-05-04T23:59:59", datatype=XSD_DATETIME),
    Literal("1950-06-01T08:00:00", datatype=XSD_DATETIME),
    Literal("1999", datatype=XSD_GYEAR),
    Literal("2010", datatype=XSD_GYEAR),
    # gYears no date can hold: malformed dates, ranked by lexical form
    Literal("0", datatype=XSD_GYEAR),
    Literal("-0044", datatype=XSD_GYEAR),
    Literal("10000", datatype=XSD_GYEAR),
)
POOL = querygen.LITERALS + EXTRA_LITERALS + querygen.IRIS + (BNode("b1"),)
INFINITIES = {"INF", "-INF"}

#: Range constants: numbers and dates in the dictionary, between two
#: ranks, and below or above every finite value of their kind.
CONSTANTS = (
    Literal("0", datatype=XSD_INTEGER),
    Literal("2", datatype=XSD_INTEGER),
    Literal("1.0", datatype=XSD_DOUBLE),
    Literal("2.50", datatype=XSD_DECIMAL),
    Literal("-0.0", datatype=XSD_DOUBLE),
    Literal("INF", datatype=XSD_DOUBLE),
    Literal("1.5", datatype=XSD_DOUBLE),
    Literal("2.7", datatype=XSD_DECIMAL),
    Literal("-100", datatype=XSD_INTEGER),
    Literal("1e6", datatype=XSD_DOUBLE),
    Literal("2001-05-04", datatype=XSD_DATE),
    Literal("2001-05-04T06:00:00", datatype=XSD_DATETIME),
    Literal("2001", datatype=XSD_GYEAR),
    Literal("2000-06-15", datatype=XSD_DATE),
    Literal("1000-01-01", datatype=XSD_DATE),
    Literal("2500-01-01", datatype=XSD_DATE),
)

V, W, LINK = (IRI(f"http://r/{name}") for name in ("v", "w", "link"))
SUBJECTS = 160

#: Filter positions that fan out under scatter: a subject star, and the
#: trailing star of a two-star join (the filter is pushed into it).
FANOUT_SHAPES = (
    "SELECT ?s ?v WHERE {{ ?s <http://r/v> ?v . ?s <http://r/w> ?g . "
    "FILTER({f}) }} ORDER BY ?s ?v",
    "SELECT ?s ?t ?v WHERE {{ ?s <http://r/link> ?t . ?t <http://r/v> ?v . "
    "FILTER({f}) }} ORDER BY ?s ?t ?v",
)
#: Filter positions that never fan out: over an OPTIONAL (unbound cells
#: in one batch), and inside it (one group run per input row).
OPTIONAL_SHAPES = (
    "SELECT ?s ?v WHERE {{ ?s <http://r/w> ?g . "
    "OPTIONAL {{ ?s <http://r/v> ?v }} FILTER({f}) }} ORDER BY ?s ?v",
    "SELECT ?s ?v WHERE {{ ?s <http://r/w> <http://r/g0> . "
    "OPTIONAL {{ ?s <http://r/v> ?v FILTER({f}) }} }} ORDER BY ?s ?v",
)

#: (shards, object_shards); None keeps the default object partition.
SHARDINGS = ((1, None), (4, None), (8, None), (4, 0))
#: A graph over the whole pool, one without infinities (so constants
#: fall below and above every number), and a sparse random one.
GRAPHS = ("full", "finite", "sparse")
#: (graph, shards, object_shards): every sharding of the full graph, two
#: of each other graph.
SETUPS = tuple(("full", *sharding) for sharding in SHARDINGS) + (
    ("finite", 1, None), ("finite", 8, None),
    ("sparse", 4, None), ("sparse", 4, 0),
)


def _pool(flavour: str) -> tuple:
    if flavour == "full":
        return POOL
    if flavour == "finite":
        return tuple(
            term for term in POOL
            if not (isinstance(term, Literal) and term.lexical in INFINITIES)
        )
    return tuple(random.Random(41).sample(POOL, len(POOL) // 2))


def _graph(flavour: str) -> Graph:
    rng = random.Random(f"range-{flavour}")
    pool = _pool(flavour)
    graph = Graph()
    for i in range(SUBJECTS):
        subject = IRI(f"http://r/s{i}")
        graph.add(Triple(subject, W, IRI(f"http://r/g{i % 5}")))
        graph.add(
            Triple(subject, LINK, IRI(f"http://r/s{rng.randrange(SUBJECTS)}"))
        )
        if rng.random() < 0.8:  # the rest stay unbound under OPTIONAL
            for __ in range(rng.randint(1, 2)):
                graph.add(Triple(subject, V, rng.choice(pool)))
    return graph


def _filters(flipped: bool = True):
    """Every operator against every constant, in both orientations
    (the compiler normalises ``c OP ?v``), or the variable first only."""
    for constant in CONSTANTS:
        for op in OPERATORS:
            yield f"?v {op} {constant.n3()}"
            if flipped:
                yield f"{constant.n3()} {op} ?v"


FANOUT_QUERIES = tuple(
    FANOUT_SHAPES[0].format(f=expression) for expression in _filters()
) + tuple(
    FANOUT_SHAPES[1].format(f=expression) for expression in _filters(False)
)
OPTIONAL_QUERIES = tuple(
    OPTIONAL_SHAPES[0].format(f=expression) for expression in _filters()
) + tuple(
    OPTIONAL_SHAPES[1].format(f=expression) for expression in _filters(False)
)


@pytest.fixture(scope="module")
def graphs():
    return {flavour: _graph(flavour) for flavour in GRAPHS}


@pytest.fixture(scope="module")
def expected(graphs):
    """The term oracle's rows per (graph, query)."""
    rows = {}
    for flavour, graph in graphs.items():
        oracle = SparqlEngine(
            InMemoryBackend(graph).graph_view(), cache_size=0, idspace=False
        )
        for text in FANOUT_QUERIES + OPTIONAL_QUERIES:
            result = oracle.query(text)
            rows[flavour, text] = (result.variables, result.rows)
    return rows


@pytest.fixture(scope="module")
def directories(graphs, tmp_path_factory):
    built = {}
    for flavour, shards, object_shards in SETUPS:
        directory = tmp_path_factory.mktemp(f"{flavour}_{shards}_{object_shards}")
        build_segments(
            graphs[flavour], directory, shards=shards,
            object_shards=object_shards,
        )
        built[flavour, shards, object_shards] = directory
    return built


def _engine(backend, scatter: bool, stats: MetricsRegistry) -> SparqlEngine:
    engine = SparqlEngine(backend.graph_view(), cache_size=0, stats=stats)
    if scatter:
        engine.install_scatter(ScatterGatherExecutor(backend))
    return engine


def _assert_identical(engine, expected, flavour, queries):
    for text in queries:
        result = engine.query(text)
        assert (result.variables, result.rows) == expected[flavour, text], text


def _assert_rank_path(stats: MetricsRegistry) -> None:
    """Every filter took the rank path: no closure ran."""
    assert stats.counter("sparql.columnar.filter.rank_rows") > 0
    assert stats.counter("sparql.columnar.filter.evaluated") == 0


def _no_numpy(monkeypatch):
    monkeypatch.setattr(columnar, "_np", None)
    monkeypatch.setattr(segment, "_np", None)


# ---------------------------------------------------------------------------
# The invariant
# ---------------------------------------------------------------------------


def _passes(op: str, lhs, rhs) -> bool:
    try:
        return compare_values(op, lhs, rhs)
    except SparqlTypeError:
        return False


def _in_interval(op: str, term, constant) -> bool:
    key, bound = order_key(term), order_key(constant)
    return key[0] == bound[0] and OPERATORS[op](key, bound)


def _is_range_constant(term) -> bool:
    return isinstance(term, Literal) and order_key(term)[0] in (
        NUMBER_KIND, DATE_KIND,
    )


RANGE_CONSTANTS = tuple(
    term for term in CONSTANTS + POOL if _is_range_constant(term)
)


def test_invariant_holds_over_the_whole_pool():
    for term in POOL + CONSTANTS:
        for constant in RANGE_CONSTANTS:
            for op in OPERATORS:
                assert _passes(op, term, constant) == _in_interval(
                    op, term, constant
                ), (op, term, constant)


_numbers = st.one_of(
    st.integers(-(10 ** 6), 10 ** 6).map(
        lambda n: Literal(str(n), datatype=XSD_INTEGER)
    ),
    st.floats().map(lambda x: Literal(repr(x), datatype=XSD_DOUBLE)),
    st.decimals(allow_nan=False, allow_infinity=False, places=2).map(
        lambda d: Literal(str(d), datatype=XSD_DECIMAL)
    ),
)
_dates = st.one_of(
    st.dates().map(lambda d: Literal(d.isoformat(), datatype=XSD_DATE)),
    st.datetimes().map(lambda d: Literal(d.isoformat(), datatype=XSD_DATETIME)),
    st.integers(-20000, 20000).map(
        lambda y: Literal(str(y), datatype=XSD_GYEAR)
    ),
)
_others = st.one_of(
    st.sampled_from(POOL),
    st.sampled_from(("true", "false")).map(
        lambda b: Literal(b, datatype=XSD_BOOLEAN)
    ),
    st.text(max_size=4).map(Literal),
    st.text(max_size=4).map(lambda t: Literal(t, datatype=XSD_INTEGER)),
)


@given(
    term=st.one_of(_numbers, _dates, _others),
    constant=st.one_of(_numbers, _dates).filter(_is_range_constant),
    op=st.sampled_from(sorted(OPERATORS)),
)
def test_range_comparison_is_an_order_key_interval(term, constant, op):
    """The invariant beyond the pool: generated numbers (NaN and the
    infinities included), dates, dateTimes, gYears, booleans, strings
    and malformed integers, against generated constants."""
    expected = _in_interval(op, term, constant)
    assert _passes(op, term, constant) == expected
    assert _passes(FLIPPED[op], constant, term) == expected


# ---------------------------------------------------------------------------
# Which filters the compiler tags
# ---------------------------------------------------------------------------

_TAG_GRAPH = Graph(
    [Triple(IRI("http://r/s0"), V, Literal("1", datatype=XSD_INTEGER))]
)


def _tag(text: str):
    plan = columnar.compile_query(parse_query(text), _TAG_GRAPH)
    return getattr(plan.root.filters[0], "range_filter", None)


@pytest.mark.parametrize(
    "expression, operator_, key",
    [
        ("?v > 2", ">", (NUMBER_KIND, 2)),
        ("2 > ?v", "<", (NUMBER_KIND, 2)),
        ("2.5 <= ?v", ">=", (NUMBER_KIND, 2.5)),
        ('?v < "2001-05-04"^^<http://www.w3.org/2001/XMLSchema#date>', "<",
         order_key(Literal("2001-05-04", datatype=XSD_DATE))),
    ],
)
def test_range_shapes_are_tagged(expression, operator_, key):
    text = f"SELECT ?s WHERE {{ ?s <http://r/v> ?v . FILTER({expression}) }}"
    assert _tag(text) == RangeFilter(1, operator_, key)


@pytest.mark.parametrize(
    "expression",
    [
        '?v > "NaN"^^<http://www.w3.org/2001/XMLSchema#double>',
        '?v > "abc"^^<http://www.w3.org/2001/XMLSchema#integer>',
        '?v > "2001-02-30"^^<http://www.w3.org/2001/XMLSchema#date>',
        # a gYear no date can hold: a malformed date
        '?v > "0"^^<http://www.w3.org/2001/XMLSchema#gYear>',
        '?v > "10"',
        "?v > true",
        "?v > <http://r/s0>",
        "?v = 2",
        "?v != 2",
        "?v > ?s",
        "?nowhere > 2",
        "!(?v > 2)",
        "?v > 2 && ?v < 5",
        "?v > 2 || ?v < 0",
    ],
)
def test_other_shapes_are_not_tagged(expression):
    text = f"SELECT ?s WHERE {{ ?s <http://r/v> ?v . FILTER({expression}) }}"
    assert _tag(text) is None


def test_order_keys_are_not_tagged():
    plan = columnar.compile_query(
        parse_query(
            "SELECT ?s WHERE { ?s <http://r/v> ?v } ORDER BY ASC(?v > 2)"
        ),
        _TAG_GRAPH,
    )
    (closure, __, __), = plan._order_keys
    assert getattr(closure, "range_filter", None) is None


# ---------------------------------------------------------------------------
# End to end against the oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("numpy", [True, False], ids=["numpy", "python"])
@pytest.mark.parametrize("scatter", [True, False], ids=["scatter", "inline"])
@pytest.mark.parametrize("flavour,shards,object_shards", SETUPS)
def test_fanout_shapes_match_oracle(
    directories, expected, monkeypatch, flavour, shards, object_shards,
    scatter, numpy,
):
    if not numpy:
        _no_numpy(monkeypatch)
    stats = MetricsRegistry()
    with SegmentedBackend(directories[flavour, shards, object_shards]) as backend:
        assert backend.dictionary.order_ranks is not None
        _assert_identical(
            _engine(backend, scatter, stats), expected, flavour,
            FANOUT_QUERIES,
        )
    _assert_rank_path(stats)
    if scatter and shards > 1:
        assert stats.counter("sparql.scatter.queries") > 0


@pytest.mark.parametrize("numpy", [True, False], ids=["numpy", "python"])
@pytest.mark.parametrize("flavour", GRAPHS)
def test_optional_shapes_match_oracle(
    directories, expected, monkeypatch, flavour, numpy
):
    """Unbound cells fail every range filter; scatter falls back."""
    if not numpy:
        _no_numpy(monkeypatch)
    stats = MetricsRegistry()
    shards = 1 if flavour == "finite" else 4
    with SegmentedBackend(directories[flavour, shards, None]) as backend:
        _assert_identical(
            _engine(backend, True, stats), expected, flavour,
            OPTIONAL_QUERIES,
        )
    _assert_rank_path(stats)
    assert stats.counter("sparql.scatter.queries") == 0


def test_in_heap_dictionary_keeps_the_closure(graphs, expected):
    """A plain ``TermDictionary`` ships no ranks: the memoized closure
    decides, with the same answers."""
    stats = MetricsRegistry()
    engine = SparqlEngine(graphs["full"], cache_size=0, stats=stats)
    _assert_identical(engine, expected, "full", FANOUT_QUERIES)
    assert stats.counter("sparql.columnar.filter.rank_rows") == 0
    assert stats.counter("sparql.columnar.filter.evaluated") > 0


@pytest.fixture(scope="module")
def parent_directory(graphs, tmp_path_factory):
    """A directory in the format written before ranks shipped."""
    directory = tmp_path_factory.mktemp("parent_format")
    patch = pytest.MonkeyPatch()
    patch.setattr("repro.kb.shard.write_dictionary", _write_parent_dictionary)
    try:
        build_segments(graphs["full"], directory, shards=4)
    finally:
        patch.undo()
    return directory


def test_directory_without_ranks_keeps_the_closure(parent_directory, expected):
    stats = MetricsRegistry()
    with SegmentedBackend(parent_directory) as backend:
        assert backend.dictionary.order_ranks is None
        _assert_identical(
            _engine(backend, True, stats), expected, "full", FANOUT_QUERIES
        )
    assert stats.counter("sparql.columnar.filter.rank_rows") == 0
    assert stats.counter("sparql.columnar.filter.evaluated") > 0


# ---------------------------------------------------------------------------
# The rank search
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("numpy", [True, False], ids=["numpy", "python"])
def test_first_rank_brackets_every_key(directories, monkeypatch, numpy):
    """``first_rank`` agrees with a linear scan of the decoded terms."""
    if not numpy:
        _no_numpy(monkeypatch)
    with SegmentedBackend(directories["full", 4, None]) as backend:
        dictionary = backend.dictionary
        ranks = dictionary.order_ranks
        keys = {}
        for term_id in range(len(dictionary)):
            keys[ranks[term_id]] = order_key(dictionary.decode(term_id))
        ordered = [keys[rank] for rank in range(len(keys))]
        probes = [order_key(c) for c in CONSTANTS] + [
            (kind,) for kind in range(9)
        ]
        for key in probes:
            assert dictionary.first_rank(key) == sum(k < key for k in ordered)
            assert dictionary.first_rank(key, above=True) == sum(
                k <= key for k in ordered
            )


@pytest.mark.parametrize("numpy", [True, False], ids=["numpy", "python"])
@pytest.mark.parametrize("bad_rank", ["past_end", "negative", "gap"])
def test_corrupt_rank_column_raises_a_typed_error(
    directories, monkeypatch, numpy, bad_rank
):
    """A rank column that is not dense is refused, never searched."""
    if not numpy:
        _no_numpy(monkeypatch)
    with SegmentedBackend(directories["full", 1, None]) as backend:
        dictionary = backend.dictionary
        ranks = list(dictionary.order_ranks)
        # Rank 0 goes missing, replaced by a rank past the end, a
        # negative one, or a duplicate of rank 1.
        ranks[ranks.index(0)] = {
            "past_end": len(ranks), "negative": -1, "gap": 1,
        }[bad_rank]
        dictionary.order_ranks = memoryview(array("q", ranks))
        with pytest.raises(segment.SegmentIntegrityError):
            dictionary.first_rank((NUMBER_KIND,))
