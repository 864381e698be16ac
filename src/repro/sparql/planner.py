"""Join-order planning for basic graph patterns.

Both engines evaluate a BGP as a left-deep join, so the order of the
triple patterns dominates the cost.  :func:`plan_bgp` orders them greedily
by estimated cardinality — for the term-space executor at run time, and
for the id-space compiler (:mod:`repro.sparql.compiler`) once per plan,
from the variables definitely bound when the BGP starts:

* a slot holding a constant restricts via the store's exact statistics
  (:meth:`repro.rdf.Graph.count`);
* a slot holding an already-bound variable will be a constant *at run time*,
  which we credit with a fixed reduction factor per bound slot;
* unbound slots do not restrict.

This mirrors the classic variable-counting heuristics used by RDF stores
when full characteristic-set statistics are unavailable.
"""

from __future__ import annotations

from repro.rdf.graph import Graph
from repro.rdf.terms import Term, Triple, Variable

#: Cardinality reduction credited to a variable that will be bound by the
#: time the pattern executes.  The exact value only has to break ties
#: sensibly; 20 keeps bound-join patterns ahead of open scans.
BOUND_VARIABLE_FACTOR = 20.0

#: Minimum rows on *both* join sides before the columnar engine upgrades a
#: hash join to a vectorized sort-merge join (single-key joins only; the
#: sort + binary-search plan amortises over large runs of duplicate keys).
MERGE_JOIN_MIN_ROWS = 64

#: Minimum rows on both sides before a composite-key join is partitioned
#: by key radix and hash-joined per partition.  Partitioning only pays for
#: itself when the monolithic hash table would be large enough that
#: per-partition tables improve locality and bound probe-chain length.
RADIX_JOIN_MIN_ROWS = 4096

#: Number of radix partitions (must be a power of two; the partition of a
#: key is ``hash(key) & (RADIX_JOIN_PARTITIONS - 1)``).
RADIX_JOIN_PARTITIONS = 64


def choose_batch_join(
    probe_rows: int,
    scan_rows: int,
    key_count: int,
    vectorized: bool,
) -> str:
    """Pick the columnar join operator for one pattern.

    Called by :func:`repro.sparql.columnar.join_pattern` only after its
    admission test (``HASH_JOIN_MIN_ROWS`` / ``HASH_JOIN_MAX_SCAN_FACTOR``
    in :mod:`repro.sparql.compiler`) has decided that a batch join beats
    per-row index lookups; this function only chooses *which* batch join:

    * ``merge`` — single join key, both sides large, and a vectorized
      backend (numpy) is available: sort the scan side once, then binary-
      search every probe key in one shot;
    * ``radix`` — both sides exceed :data:`RADIX_JOIN_MIN_ROWS`: partition
      both sides by key radix and hash-join partition-wise;
    * ``hash`` — everything else: one scan hashed, one probe per row.
    """
    smaller = min(probe_rows, scan_rows)
    if vectorized and key_count == 1 and smaller >= MERGE_JOIN_MIN_ROWS:
        return "merge"
    if smaller >= RADIX_JOIN_MIN_ROWS:
        return "radix"
    return "hash"


def estimate_cardinality(
    graph: Graph, pattern: Triple, bound: set[Variable]
) -> float:
    """Estimated number of matches for ``pattern`` given bound variables."""

    def constant(slot: Term) -> Term | None:
        return None if isinstance(slot, Variable) else slot

    base = graph.count(
        constant(pattern.subject),
        constant(pattern.predicate),
        constant(pattern.object),
    )
    estimate = float(base)
    for slot in (pattern.subject, pattern.predicate, pattern.object):
        if isinstance(slot, Variable) and slot in bound:
            estimate /= BOUND_VARIABLE_FACTOR
    return estimate


def plan_bgp(
    graph: Graph, triples: tuple[Triple, ...], initially_bound: set[Variable]
) -> list[Triple]:
    """Order BGP triples for execution.

    Greedy: repeatedly pick the remaining pattern with the lowest estimated
    cardinality under the current bound-variable set, preferring patterns
    connected to already-bound variables to avoid Cartesian products.
    """
    remaining = list(triples)
    bound = set(initially_bound)
    ordered: list[Triple] = []
    while remaining:
        best_index = 0
        best_key: tuple[int, float] | None = None
        for index, pattern in enumerate(remaining):
            variables = pattern.variables()
            # 0 when connected to the join so far (or the first pattern),
            # 1 when it would form a Cartesian product.
            disconnected = int(bool(ordered) and bound.isdisjoint(variables))
            key = (disconnected, estimate_cardinality(graph, pattern, bound))
            if best_key is None or key < best_key:
                best_key = key
                best_index = index
        chosen = remaining.pop(best_index)
        ordered.append(chosen)
        bound |= chosen.variables()
    return ordered
