"""Iterator-based term-space evaluation of graph patterns.

Solutions are immutable-by-convention ``dict[Variable, Term]`` bindings.
Groups evaluate their children in order: BGPs join (with planned triple
order), OPTIONAL left-joins, UNION concatenates, and FILTERs collected in
the group apply to the group's final solutions (SPARQL filter scoping).

This is the slower and simpler of the two engines — the reference the
production one is checked against.  The columnar id-space engine
(:mod:`repro.sparql.columnar`, over plans from
:mod:`repro.sparql.compiler`) must produce identical decoded solutions to
this evaluator; the differential harness
(``tests/sparql/test_columnar_differential.py``) drives both over seeded
random queries, and ordered results compare byte-for-byte thanks to the
shared deterministic ORDER BY tie-break (docs/performance.md,
"Deterministic ordering").
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.rdf.graph import Graph
from repro.rdf.terms import Term, Triple, Variable
from repro.sparql.ast import (
    BGP,
    Filter,
    Group,
    OptionalPattern,
    UnionPattern,
)
from repro.sparql.errors import SparqlTypeError
from repro.sparql.functions import effective_boolean, evaluate
from repro.sparql.planner import plan_bgp

Solution = dict[Variable, Term]


def _substitute(slot: Term, solution: Solution) -> Term | None:
    """Resolve a pattern slot against a solution: bound vars become
    constants, unbound vars become wildcards (None)."""
    if isinstance(slot, Variable):
        return solution.get(slot)
    return slot


def _match_pattern(
    graph: Graph, pattern: Triple, solution: Solution
) -> Iterator[Solution]:
    """Extend one solution with all matches of one triple pattern."""
    subject = _substitute(pattern.subject, solution)
    predicate = _substitute(pattern.predicate, solution)
    obj = _substitute(pattern.object, solution)
    for triple in graph.match(subject, predicate, obj):
        extended = dict(solution)
        consistent = True
        for slot, value in (
            (pattern.subject, triple.subject),
            (pattern.predicate, triple.predicate),
            (pattern.object, triple.object),
        ):
            if isinstance(slot, Variable):
                current = extended.get(slot)
                if current is None:
                    extended[slot] = value
                elif current != value:
                    # The same variable occurs twice in the pattern with
                    # conflicting values (e.g. ?x ?p ?x).
                    consistent = False
                    break
        if consistent:
            yield extended


def evaluate_bgp(
    graph: Graph, triples: tuple[Triple, ...], solutions: Iterable[Solution]
) -> Iterator[Solution]:
    """Join a BGP against a stream of solutions (nested index loops)."""
    solutions = list(solutions)
    if not solutions:
        return
    # Plan on the variables bound in *every* incoming solution: a
    # heterogeneous stream (OPTIONAL/UNION branches bind different
    # variables) must not get a join order keyed on a variable that is
    # unbound in some solutions.
    bound = set(solutions[0])
    for solution in solutions[1:]:
        bound &= set(solution)
        if not bound:
            break
    steps = plan_bgp(graph, triples, bound)

    def join(current: Iterable[Solution], pattern: Triple) -> Iterator[Solution]:
        for solution in current:
            yield from _match_pattern(graph, pattern, solution)

    stream: Iterable[Solution] = solutions
    for pattern, __ in steps:
        stream = join(stream, pattern)
    yield from stream


def _passes(filters: list[Filter], solution: Solution) -> bool:
    for constraint in filters:
        try:
            if not effective_boolean(evaluate(constraint.expression, solution)):
                return False
        except SparqlTypeError:
            # Per SPARQL semantics a type error means the filter fails.
            return False
    return True


def evaluate_group(
    graph: Graph, group: Group, solutions: Iterable[Solution] | None = None
) -> Iterator[Solution]:
    """Evaluate a ``{ ... }`` group against the graph."""
    stream: list[Solution] = list(solutions) if solutions is not None else [{}]
    filters: list[Filter] = []
    for child in group.patterns:
        if isinstance(child, BGP):
            stream = list(evaluate_bgp(graph, child.triples, stream))
        elif isinstance(child, Filter):
            filters.append(child)
        elif isinstance(child, OptionalPattern):
            stream = list(_left_join(graph, child.pattern, stream))
        elif isinstance(child, UnionPattern):
            stream = list(_union_join(graph, child, stream))
        elif isinstance(child, Group):
            stream = list(evaluate_group(graph, child, stream))
        else:
            raise TypeError(f"unknown pattern node {type(child).__name__}")
        if not stream:
            break
    for solution in stream:
        if _passes(filters, solution):
            yield solution


def _left_join(
    graph: Graph, optional: Group, solutions: Iterable[Solution]
) -> Iterator[Solution]:
    for solution in solutions:
        matched = False
        for extended in evaluate_group(graph, optional, [solution]):
            matched = True
            yield extended
        if not matched:
            yield solution


def _union_join(
    graph: Graph, union: UnionPattern, solutions: Iterable[Solution]
) -> Iterator[Solution]:
    solutions = list(solutions)
    yield from evaluate_group(graph, union.left, solutions)
    yield from evaluate_group(graph, union.right, solutions)
