"""Join-order planning for basic graph patterns.

Both engines evaluate a BGP as a left-deep join, so the order of the
triple patterns dominates the cost.  :func:`order_patterns` orders them
greedily by estimated cardinality, from the variables definitely bound
when the BGP starts and one exact match count per pattern, taken once per
plan: the id-space compiler (:mod:`repro.sparql.compiler`) counts its
compiled patterns with :meth:`~repro.rdf.Graph.count_ids` on the ids it
has already resolved, and :func:`plan_bgp` counts triples with
:meth:`~repro.rdf.Graph.count` for the term-space executor and EXPLAIN.
At each greedy step:

* a slot holding a constant restricts via that count;
* a slot holding an already-bound variable will be a constant *at run time*,
  which we credit with a fixed reduction factor per bound slot;
* unbound slots do not restrict.

This mirrors the classic variable-counting heuristics used by RDF stores
when full characteristic-set statistics are unavailable.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from repro.rdf.graph import Graph
from repro.rdf.terms import Triple, Variable

#: Cardinality reduction credited to a variable that will be bound by the
#: time the pattern executes.  The exact value only has to break ties
#: sensibly; 20 keeps bound-join patterns ahead of open scans.
BOUND_VARIABLE_FACTOR = 20.0

#: Minimum rows on *both* join sides before the columnar engine upgrades a
#: hash join to a vectorized sort-merge join (single-key joins only; the
#: sort + binary-search plan amortises over large runs of duplicate keys).
MERGE_JOIN_MIN_ROWS = 64


def choose_batch_join(
    probe_rows: int,
    scan_rows: int,
    key_count: int,
    vectorized: bool,
) -> str:
    """Pick the columnar join operator for one pattern.

    Called by :func:`repro.sparql.columnar.join_pattern` only after the
    columnar admission test (a scan at most ``HASH_JOIN_MAX_SCAN_FACTOR``
    times the batch, :mod:`repro.sparql.compiler`) has decided that a
    batch join beats per-row index lookups; this function only chooses
    *which* batch join:

    * ``merge`` — single join key, both sides large, and a vectorized
      backend (numpy) is available: sort the scan side once, then binary-
      search every probe key in one shot;
    * ``hash`` — everything else: one scan hashed, one probe per row.
    """
    smaller = min(probe_rows, scan_rows)
    if vectorized and key_count == 1 and smaller >= MERGE_JOIN_MIN_ROWS:
        return "merge"
    return "hash"


#: One pattern's variable at each of its three positions (subject,
#: predicate, object), None where the position holds a constant.  Any
#: hashable names serve (variables, or compiled slot indices) as long as
#: the bound set uses the same ones.
Positions = tuple[Hashable | None, Hashable | None, Hashable | None]


def estimate_cardinality(
    count: int, positions: Positions, bound: set[Hashable]
) -> float:
    """Estimated matches of a pattern with ``count`` exact matches (its
    constants bound, its variables open) once the ``bound`` variables are:
    ``count`` divided by :data:`BOUND_VARIABLE_FACTOR` per position that
    holds a bound variable.

    >>> estimate_cardinality(400, ("x", None, "y"), {"y"})
    20.0
    """
    estimate = float(count)
    for variable in positions:
        if variable is not None and variable in bound:
            estimate /= BOUND_VARIABLE_FACTOR
    return estimate


def order_patterns(
    counts: Sequence[int],
    positions: Sequence[Positions],
    initially_bound: Iterable[Hashable],
) -> list[tuple[int, float]]:
    """Order a BGP's patterns for execution, as ``(pattern index,
    estimate)`` steps.

    Greedy: repeatedly pick the remaining pattern with the lowest
    :func:`estimate_cardinality` under the current bound-variable set,
    preferring patterns connected to already-bound variables to avoid
    Cartesian products; ties go to the earlier pattern.  Each step's
    estimate is the one it was chosen on.
    """
    variables = [
        {variable for variable in slots if variable is not None}
        for slots in positions
    ]
    remaining = list(range(len(counts)))
    bound = set(initially_bound)
    steps: list[tuple[int, float]] = []
    while remaining:
        best_at = 0
        best_key: tuple[int, float] | None = None
        for at, index in enumerate(remaining):
            # 0 when connected to the join so far (or the first pattern),
            # 1 when it would form a Cartesian product.
            disconnected = int(bool(steps) and bound.isdisjoint(variables[index]))
            key = (
                disconnected,
                estimate_cardinality(counts[index], positions[index], bound),
            )
            if best_key is None or key < best_key:
                best_key = key
                best_at = at
        chosen = remaining.pop(best_at)
        steps.append((chosen, best_key[1]))
        bound |= variables[chosen]
    return steps


def plan_bgp(
    graph: Graph, triples: tuple[Triple, ...], initially_bound: set[Variable]
) -> list[tuple[Triple, float]]:
    """Term-space :func:`order_patterns`: each triple counted once with
    :meth:`~repro.rdf.Graph.count`, the order returned as ``(triple,
    estimate)`` steps."""
    positions = [
        tuple(slot if isinstance(slot, Variable) else None for slot in triple)
        for triple in triples
    ]
    counts = [
        graph.count(*(
            None if isinstance(slot, Variable) else slot for slot in triple
        ))
        for triple in triples
    ]
    return [
        (triples[index], estimate)
        for index, estimate in order_patterns(counts, positions, initially_bound)
    ]
