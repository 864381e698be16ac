"""Differential testing: SparqlEngine vs a naive BGP oracle, caches on/off.

A ~30-line reference evaluator computes BGP solutions by brute-force
enumeration of term assignments; a seeded generator produces random basic
graph patterns over a small synthetic graph.  The engine — with caches
enabled *and* disabled, including repeat queries that hit the result
cache — must match the oracle's result **multisets** exactly (order-free,
multiplicity-aware).
"""

import random
from collections import Counter
from itertools import product

import pytest

from repro.rdf import Graph, IRI, Literal, Triple, Variable
from repro.sparql.ast import BGP, Group, SelectQuery
from repro.sparql.engine import SparqlEngine
from repro.sparql.errors import SparqlError, SparqlParseError

# -- the oracle (naive reference evaluator) ------------------------------


def _holds(graph, subject, predicate, obj):
    """Whether a fully ground pattern is in the graph.  Assignments that
    put a literal in subject/predicate position are simply non-matches
    (RDF forbids such triples, so the graph cannot contain them)."""
    if isinstance(subject, Literal) or isinstance(predicate, Literal):
        return False
    return Triple(subject, predicate, obj) in graph


def oracle_solutions(graph, patterns):
    """Every BGP solution, by exhaustive assignment of graph terms."""
    variables = sorted(
        {v for p in patterns for v in p.variables()}, key=lambda v: v.name
    )
    universe = set()
    for triple in graph.match(None, None, None):
        universe.update((triple.subject, triple.predicate, triple.object))
    solutions = []
    for assignment in product(universe, repeat=len(variables)):
        binding = dict(zip(variables, assignment))
        resolve = lambda s: binding[s] if isinstance(s, Variable) else s
        if all(
            _holds(graph, resolve(p.subject), resolve(p.predicate), resolve(p.object))
            for p in patterns
        ):
            solutions.append(binding)
    return variables, solutions


def oracle_multiset(graph, patterns):
    """The oracle's projected rows as a multiset."""
    variables, solutions = oracle_solutions(graph, patterns)
    return variables, Counter(
        tuple(str(s.get(v)) for v in variables) for s in solutions
    )


# -- the generator -------------------------------------------------------

_NODES = [IRI(f"http://synth/{name}") for name in "abcdef"]
_PREDS = [IRI(f"http://synth/p{index}") for index in range(3)]
_LITERALS = [Literal("1"), Literal("two")]
_VARS = [Variable("x"), Variable("y"), Variable("z")]


def make_graph(rng):
    """A small synthetic graph: 8-18 triples, occasional literal objects."""
    triples = set()
    for __ in range(rng.randint(8, 18)):
        obj = rng.choice(_NODES + _LITERALS)
        triples.add(Triple(rng.choice(_NODES), rng.choice(_PREDS), obj))
    return Graph(sorted(triples, key=str))


def make_bgp(rng):
    """1-3 random patterns mixing variables, nodes and predicates."""
    patterns = []
    for __ in range(rng.randint(1, 3)):
        subject = rng.choice(_NODES + _VARS[:2])
        predicate = rng.choice(_PREDS + _VARS[2:])
        obj = rng.choice(_NODES + _VARS[:2] + _LITERALS)
        patterns.append(Triple(subject, predicate, obj))
    return patterns


def engine_multiset(engine, query, variables):
    rows = engine.select(query).rows
    return Counter(tuple(str(term) for term in row) for row in rows)


CASES = list(range(80))


@pytest.mark.parametrize("seed", CASES[:30])
def test_engine_matches_oracle_multiset(seed):
    rng = random.Random(1000 + seed)
    graph = make_graph(rng)
    patterns = make_bgp(rng)
    variables, expected = oracle_multiset(graph, patterns)
    query = SelectQuery(
        projection=tuple(variables), where=Group((BGP(tuple(patterns)),))
    )

    cached = SparqlEngine(graph, cache_size=128)
    uncached = SparqlEngine(graph, cache_size=0)
    assert engine_multiset(cached, query, variables) == expected
    assert engine_multiset(uncached, query, variables) == expected
    # Second pass answers from the result cache — still the same multiset.
    assert engine_multiset(cached, query, variables) == expected
    assert cached.cache_stats()["result_cache"]["hits"] >= 1


@pytest.mark.slow
@pytest.mark.parametrize("seed", CASES[30:])
def test_engine_matches_oracle_multiset_deep(seed):
    rng = random.Random(1000 + seed)
    graph = make_graph(rng)
    patterns = make_bgp(rng)
    variables, expected = oracle_multiset(graph, patterns)
    query = SelectQuery(
        projection=tuple(variables), where=Group((BGP(tuple(patterns)),))
    )
    for engine in (SparqlEngine(graph, cache_size=128), SparqlEngine(graph, cache_size=0)):
        assert engine_multiset(engine, query, variables) == expected


def test_cache_invalidation_tracks_graph_mutation():
    """Cached results must die with the graph generation, matching the
    oracle on the mutated graph."""
    rng = random.Random(7)
    graph = make_graph(rng)
    patterns = [Triple(_VARS[0], _PREDS[0], _VARS[1])]
    query = SelectQuery(
        projection=(_VARS[0], _VARS[1]), where=Group((BGP(tuple(patterns)),))
    )
    engine = SparqlEngine(graph, cache_size=128)
    engine.select(query)

    graph.add(Triple(_NODES[0], _PREDS[0], _NODES[5]))
    variables, expected = oracle_multiset(graph, patterns)
    assert engine_multiset(engine, query, variables) == expected


@pytest.mark.parametrize("cache_size", (0, 512))
@pytest.mark.parametrize("idspace", (True, False))
def test_errors_are_counted_with_and_without_caches(cache_size, idspace):
    """A malformed query ticks ``sparql.parse_errors`` and a failing
    evaluation ticks ``sparql.errors`` whether or not the engine caches."""
    graph = make_graph(random.Random(3))
    engine = SparqlEngine(graph, cache_size=cache_size, idspace=idspace)
    with pytest.raises(SparqlParseError):
        engine.query("SELECT ?x WHERE { broken")
    with pytest.raises(SparqlError, match="COUNT cannot be mixed"):
        engine.query("SELECT ?x (COUNT(?y) AS ?n) WHERE { ?x ?p ?y }")
    assert engine.stats.counter("sparql.parse_errors") == 1
    assert engine.stats.counter("sparql.errors") == 1


def test_failed_parse_never_poisons_the_cache():
    """A query that fails to parse is counted, not cached; the same text
    keeps failing identically and valid queries are unaffected."""
    graph = make_graph(random.Random(3))
    engine = SparqlEngine(graph, cache_size=128)
    for __ in range(2):
        with pytest.raises(Exception):
            engine.query("SELECT ?x WHERE { broken")
    assert engine.stats.counter("sparql.parse_errors") == 2
    pattern = Triple(_VARS[0], _PREDS[0], _VARS[1])
    variables, expected = oracle_multiset(graph, [pattern])
    query = SelectQuery(
        projection=tuple(variables), where=Group((BGP((pattern,)),))
    )
    assert engine_multiset(engine, query, variables) == expected
