"""Scatter-gather execution of compiled plans over KB segment shards.

The :class:`~repro.kb.shard.SegmentedBackend` partitions triples twice —
by a hash of the **subject id** (primary) and, in directories that carry
the secondary partition, by a hash of the **object id** — which gives
three classes of queries a parallel decomposition with no cross-shard
deduplication:

* **subject-star** — every triple pattern's subject is the same variable.
  A solution binds that variable to one id whose triples all live in one
  subject shard, so per-shard execution partitions the global solution
  set exactly.
* **object-star** — every pattern's object is the same variable; the
  mirror argument holds over the object-hash partition.  This is the
  POS-order routing path: predicate-bound patterns (``?s dbo:p ?v``
  stars on ``?v``) partition by object hash instead of falling back to
  the merged scan.
* **two-star** — a flat conjunction whose subjects form exactly two
  variables with at least one shared variable.  Executed by **semi-join
  shipping**: the more selective star (by minimum pattern count) runs per
  shard first; the distinct id-tuples of its join variables are then
  *shipped* to the other star's shards — routed to the one owning shard
  when the second star's subject is itself a join variable, broadcast as
  a per-shard semi-join filter otherwise.  The coordinator hash-joins the
  two batches into the full plan's slot layout and applies only the
  **residual** filters (cross-star or variable-free ones; every other
  filter was pushed into a star by :func:`slice_two_star` and already
  held on the same bindings) before shaping the result.  Because BGP
  solutions over a set-graph are sets of assignments, the natural join
  of the two stars' solution sets *is* the full query's solution
  multiset — no multiplicity correction needed.

:class:`ScatterGatherExecutor` runs the decomposition on the columnar
engine (:mod:`repro.sparql.columnar`), from shard to answer:

1. **Gate** — a plan whose most selective pattern matches fewer than
   :data:`FANOUT_MIN_ROWS` rows runs single-process instead, where
   routed scans already touch one shard.
2. **Scatter** — one task per shard runs the compiled plan's operator
   tree on a :class:`~repro.sparql.columnar.ColumnBatch` over a
   single-shard view, in the calling thread; the dictionary is global,
   so constants and slot layouts resolve identically on every shard.
   All shards of one gather share one filter memo: a compiled filter
   reads only global ids, so its verdict for an id combination — and a
   range filter's interval of order ranks — is the same on every shard.
3. **Gather** — the coordinator concatenates the per-shard batches in
   shard order and shapes them with
   :meth:`ColumnarQuery._shape_select_batch` (ORDER BY keys sorted as
   order ranks, each distinct id of the returned rows decoded once).
   ORDER BY sorts with the engine's deterministic id-tuple tie-break, so
   ordered answers are **byte-identical** to single-process execution;
   unordered answers are multiset-identical (the documented engine
   contract).
   DISTINCT, OFFSET/LIMIT and aggregates see the complete solution set.

Per-shard results are cached in generation-stamped
:class:`~repro.kb.shard.ShardResultCache` instances, one per shard,
holding the batch itself (safe because operators never mutate a
column).  The stamp combines the backend's content fingerprint with the
executor's reload generation: :meth:`ScatterGatherExecutor.rebind` —
called on every hot KB reload — bumps the generation, so one reload
empties every shard cache at once (``kb.shard_cache.*`` counters).

Queries outside the partitionable fragment (OPTIONAL, UNION, nested
groups, three or more stars, disconnected stars, unordered LIMIT/OFFSET,
ORDER BY keys that are not plain terms) return ``None`` from
:meth:`ScatterGatherExecutor.maybe_execute` and fall back to ordinary
execution over the full backend view.  Counters land in the
``sparql.scatter.*`` family (docs/observability.md).
"""

from __future__ import annotations

import hashlib
import threading
from array import array
from itertools import chain

from repro.kb.shard import (
    SegmentedBackend,
    ShardResultCache,
    shard_of_subject,
)
from repro.obs.metrics import MetricsRegistry
from repro.perf.lru import LRUCache
from repro.rdf.terms import Variable
from repro.sparql import columnar
from repro.sparql.ast import BGP, Filter, TermExpr
from repro.sparql.columnar import ColumnarQuery, ColumnBatch
from repro.sparql.compiler import (
    HASH_JOIN_MIN_ROWS,
    UNBOUND,
    ExecContext,
    TwoStarSlice,
    slice_two_star,
)
from repro.sparql.engine import DEFAULT_CACHE_SIZE
from repro.sparql.results import AskResult, SelectResult

#: Fan-out threshold: a partitionable plan whose most selective pattern
#: matches fewer rows than this runs single-process instead (the same
#: row count below which the engine keeps per-row index lookups over a
#: hash join — too little work to pay for one plan run per shard).
FANOUT_MIN_ROWS = HASH_JOIN_MIN_ROWS

#: Entries per shard result cache (one cache per shard and partition).
SHARD_CACHE_SIZE = 256


def _slice_deterministic(query) -> bool:
    """Whether LIMIT/OFFSET slicing commutes with scatter-gather.

    An unordered LIMIT/OFFSET keeps "whichever rows the operators
    produced first" — a production order scatter-gather cannot reproduce.
    With ORDER BY the full solution set sorts under the deterministic
    tie-break before slicing, so the slice is identical on both paths —
    **provided every ORDER BY key is a plain term** (variable or
    constant).  A computed key (function call, comparison, negation) can
    collapse many rows into one rank whose tie source is not the id
    tuple the scatter merge reproduces — e.g. a key expression that
    type-errors on some rows ranks them all as "unorderable" — so sliced
    queries with non-term keys are *rejected* here rather than
    mis-routed; the engine executes them single-process.
    """
    if getattr(query, "limit", None) is None and not getattr(
        query, "offset", 0
    ):
        return True
    order = getattr(query, "order_by", ())
    if not order:
        return False
    return all(
        isinstance(condition.expression, TermExpr) for condition in order
    )


def _flat_triples(query):
    """The triples of a flat BGP/FILTER conjunction, or ``None`` when the
    WHERE clause contains any other pattern kind."""
    triples = []
    for child in query.where.patterns:
        if isinstance(child, BGP):
            triples.extend(child.triples)
        elif not isinstance(child, Filter):
            return None
    return triples


def partition_variable(query) -> Variable | None:
    """The shared subject variable, when ``query`` is shard-partitionable.

    Partitionable means: the WHERE clause is a flat conjunction of BGPs
    and FILTERs (no OPTIONAL / UNION / nested group) with **at least one**
    triple pattern, every pattern's subject is the same
    :class:`Variable`, and any LIMIT/OFFSET is pinned by a plain-term
    ORDER BY (:func:`_slice_deterministic`).  Each solution then binds
    that variable to one subject id, whose triples all live in one shard —
    so per-shard execution partitions the global solution set exactly.
    Returns ``None`` for everything else.
    """
    if not _slice_deterministic(query):
        return None
    triples = _flat_triples(query)
    if not triples:
        return None
    subject = triples[0].subject
    if not isinstance(subject, Variable):
        return None
    for triple in triples:
        if triple.subject != subject:
            return None
    return subject


def object_partition_variable(query) -> Variable | None:
    """The shared object variable, when ``query`` is an object-star.

    The mirror of :func:`partition_variable` over the secondary
    object-hash partition: every triple pattern's object must be the same
    variable.  A solution binds it to one object id, and all the
    solution's triples carry that id as object — so they live in exactly
    one object shard, and per-shard fan-out partitions the solution set.
    """
    if not _slice_deterministic(query):
        return None
    triples = _flat_triples(query)
    if not triples:
        return None
    obj = triples[0].object
    if not isinstance(obj, Variable):
        return None
    for triple in triples:
        if triple.object != obj:
            return None
    return obj


def partition_spec(query, object_shards: bool = True):
    """Classify ``query`` for scatter execution.

    Returns ``("subject", Variable)``, ``("object", Variable)``,
    ``("twostar", TwoStarSlice)``, or ``None`` (not partitionable).
    Subject stars win over object stars (the primary partition needs no
    secondary files); ``object_shards=False`` disables the object-star
    class (directories written without the secondary partition).
    """
    variable = partition_variable(query)
    if variable is not None:
        return ("subject", variable)
    if object_shards:
        variable = object_partition_variable(query)
        if variable is not None:
            return ("object", variable)
    if not _slice_deterministic(query):
        return None
    sliced = slice_two_star(query)
    if sliced is not None:
        return ("twostar", sliced)
    return None


def _min_pattern_count(graph, plan: ColumnarQuery) -> int:
    """Matches of the plan's most selective triple pattern: ``count_ids``
    over its already-resolved pattern ids, no dictionary lookups (an
    absent constant resolves to -1 and counts zero).  Sizes both the
    fan-out gate and the semi-join's lead star."""
    plan._resolve(graph)
    return min(
        (
            graph.count_ids(pattern.s_id, pattern.p_id, pattern.o_id)
            for pattern in plan._patterns
        ),
        default=0,
    )


def _keys_token(keys) -> object:
    """A compact, hashable cache-key component for a broadcast key set
    (the raw frozenset would bloat every cache entry's key)."""
    if keys is None:
        return None
    names, keyset = keys
    digest = hashlib.blake2b(digest_size=16)
    packed = array("q", chain.from_iterable(sorted(keyset)))
    digest.update(packed.tobytes())
    return (names, len(keyset), digest.digest())


def _execute_shard(
    plan: ColumnarQuery,
    view,
    seeds=None,
    keys=None,
    stats: MetricsRegistry | None = None,
    memo: dict | None = None,
) -> ColumnBatch:
    """Run a compiled plan's operator tree over one shard view, columnar.

    ``seeds`` — optional ``(variable_name, ids)`` pair: the run starts
    from a seed batch with one row per id, that variable pre-bound
    (semi-join shipping routed the ids to this shard).  ``keys`` —
    optional ``(names, keyset)`` broadcast filter: only rows whose id
    tuple over the named slots is in the set survive (per-shard
    semi-join).  ``memo`` is the gather's shared filter-verdict memo.
    Returns the slot-aligned batch, no result shaping.
    """
    plan._resolve(view)
    if seeds is None:
        batch = ColumnBatch.seed(plan.width)
    else:
        name, ids = seeds
        # Sharing one all-UNBOUND column across slots is safe: operators
        # never mutate a column in place, they only build fresh arrays.
        columns = [array("q", (UNBOUND,)) * len(ids)] * plan.width
        columns[plan.slot_by_name[name]] = array("q", ids)
        batch = ColumnBatch(plan.width, columns, len(ids))
    context = ExecContext(view, stats, memo)
    batch = columnar._run_node(plan.root, context, batch, plan)
    if keys is not None and batch.length:
        names, keyset = keys
        key_columns = [batch.columns[plan.slot_by_name[n]] for n in names]
        batch = batch.gather(
            [i for i, key in enumerate(zip(*key_columns)) if key in keyset]
        )
    return batch


class ScatterGatherExecutor:
    """Fans compiled plans out across a segmented backend's shards.

    Install on an engine with
    :meth:`repro.sparql.SparqlEngine.install_scatter`; the engine then
    offers every plan via :meth:`maybe_execute`, which either answers it
    (partitionable queries large enough to fan out) or returns ``None``
    (engine falls back to ordinary full-view execution).  Shard tasks run
    one after another in the calling thread, so answers are fully
    deterministic.  ``processes`` accepts only ``0`` (inline), the one
    execution mode.

    One executor may be shared by many engines and serving threads (the
    :class:`repro.serve.ResilientServer` workers share one over one
    mapped segment directory): cache bookkeeping is lock-protected, and
    :meth:`rebind` atomically points the executor at a reloaded backend
    while invalidating every per-shard result cache via the generation
    stamp.  Each call reads the backend once and runs on it to the end,
    so a rebind that lands mid-gather never mixes two backends' shards
    into one answer.
    """

    def __init__(
        self,
        backend: SegmentedBackend,
        processes: int = 0,
        stats: MetricsRegistry | None = None,
    ) -> None:
        if processes != 0:
            raise ValueError(
                f"scatter runs inline only: processes must be 0, "
                f"got {processes!r}"
            )
        self._backend = backend
        self._stats = stats
        self._plans = LRUCache(DEFAULT_CACHE_SIZE)
        self._caches: dict = {}
        self._generation = 0
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------

    @property
    def backend(self) -> SegmentedBackend:
        return self._backend

    @property
    def generation(self) -> int:
        """Cache epoch: bumped by every :meth:`rebind` /
        :meth:`invalidate_caches`."""
        return self._generation

    def close(self) -> None:
        """Release the per-shard result caches and the plan LRU.
        Idempotent; a later query refills them on demand."""
        with self._lock:
            self._caches.clear()
            self._plans.clear()

    def __enter__(self) -> "ScatterGatherExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def rebind(self, backend: SegmentedBackend) -> None:
        """Point the executor at a (possibly reloaded) backend.

        Called by the serving layer on every hot KB reload.  Bumps the
        cache generation so every per-shard result cache is empty for the
        next query; a call already running finishes on the backend it
        started with.
        """
        with self._lock:
            self._backend = backend
            self._generation += 1
            self._plans.clear()
        if self._stats is not None:
            self._stats.inc("kb.shard_cache.invalidations")

    def invalidate_caches(self) -> None:
        """Empty every per-shard result cache (generation bump)."""
        with self._lock:
            self._generation += 1
        if self._stats is not None:
            self._stats.inc("kb.shard_cache.invalidations")

    # -- caches --------------------------------------------------------

    def _cache_for(self, kind: str, index: int) -> ShardResultCache:
        with self._lock:
            cache = self._caches.get((kind, index))
            if cache is None:
                cache = ShardResultCache(SHARD_CACHE_SIZE)
                self._caches[(kind, index)] = cache
            return cache

    def _local_plan(self, backend: SegmentedBackend, query) -> ColumnarQuery:
        """The columnar plan for a query AST over ``backend``, compiled
        once per distinct (backend, query) pair (bounded LRU): a plan's
        resolved ids belong to the backend it was compiled against.  Star
        subqueries built by :func:`slice_two_star` compile here."""
        key = (backend, query)
        plan = self._plans.get(key)
        if plan is None:
            plan = ColumnarQuery(query, backend.graph_view())
            self._plans.put(key, plan)
        return plan

    # -- execution -----------------------------------------------------

    def maybe_execute(
        self, plan: ColumnarQuery, context: ExecContext
    ) -> SelectResult | AskResult | None:
        """Answer ``plan`` by scatter-gather, or ``None`` when it is not
        shard-partitionable or too small to fan out (the caller then
        executes it normally)."""
        stats = context.stats if context.stats is not None else self._stats
        # Read the backend once: the plan's ids were resolved against it,
        # and every shard of this call must come from it even when a
        # rebind lands mid-gather.
        backend = self._backend
        graph_backend = getattr(context.graph, "backend", None)
        if graph_backend is not None and graph_backend is not backend:
            # The engine is serving a different KB than this executor is
            # bound to (e.g. a hot reload raced the install): answering
            # would read the wrong segments.  Fall back.
            if stats is not None:
                stats.inc("sparql.scatter.foreign_graph_fallbacks")
            return None
        spec = partition_spec(
            plan.query, object_shards=backend.object_shard_count > 0
        )
        if spec is None:
            if stats is not None:
                stats.inc("sparql.scatter.fallback_queries")
            return None
        if _min_pattern_count(context.graph, plan) < FANOUT_MIN_ROWS:
            if stats is not None:
                stats.inc("sparql.scatter.local_queries")
            return None
        kind, payload = spec
        if stats is not None:
            stats.inc("sparql.scatter.queries")
        if kind == "twostar":
            return self._execute_semijoin(
                backend, plan, payload, context, stats
            )
        if stats is not None and kind == "object":
            stats.inc("sparql.scatter.object_queries")
        # The execution's filter memo serves every shard of this gather.
        batch = self._gather(
            backend, plan, kind, stats=stats, ask=plan.is_ask,
            memo=context.filter_memo,
        )
        if stats is not None:
            stats.inc("sparql.scatter.rows_gathered", batch.length)
        if plan.is_ask:
            return AskResult(batch.length > 0)
        # Global shaping on the coordinator: ORDER BY sorts the complete
        # batch under the engine's deterministic id-tuple tie-break
        # (byte-identical to single-process), DISTINCT/OFFSET/LIMIT and
        # aggregates see every shard's solutions.
        plan._resolve(context.graph)
        return plan._shape_select_batch(batch, context)

    # -- star gathering ------------------------------------------------

    def _gather(
        self,
        backend: SegmentedBackend,
        plan: ColumnarQuery,
        kind: str,
        seeds_by_shard: dict | None = None,
        keys=None,
        stats: MetricsRegistry | None = None,
        ask: bool = False,
        memo: dict | None = None,
    ) -> ColumnBatch:
        """The batch of ``plan`` over every shard of one partition of
        ``backend`` (or just the seeded shards), concatenated in shard
        order.  Each shard's batch comes from its result cache when the
        cache stamp still holds."""
        if seeds_by_shard is not None:
            indices = sorted(seeds_by_shard)
        else:
            indices = list(range(backend.partition_count(kind)))
        if stats is not None:
            stats.inc("sparql.scatter.shards_scanned", len(indices))
        token = (backend.fingerprint()["content"], self._generation)
        keys_token = _keys_token(keys)
        batches: list = []
        for index in indices:
            seeds = (
                None if seeds_by_shard is None else seeds_by_shard[index]
            )
            cache = self._cache_for(kind, index)
            cache_key = (plan.query, seeds, keys_token)
            batch = cache.get(token, cache_key)
            if stats is not None:
                stats.inc(
                    "kb.shard_cache.misses"
                    if batch is None
                    else "kb.shard_cache.hits"
                )
            if batch is None:
                batch = _execute_shard(
                    plan,
                    backend.partition_view(kind, index),
                    seeds,
                    keys,
                    stats,
                    memo,
                )
                cache.put(token, cache_key, batch)
            batches.append(batch)
            if ask and batch.length:
                break  # ASK short-circuits at the first witness
        if len(batches) == 1:
            return batches[0]
        return columnar.concat(batches, plan.width)

    # -- semi-join shipping --------------------------------------------

    def _execute_semijoin(
        self,
        backend: SegmentedBackend,
        plan: ColumnarQuery,
        sliced: TwoStarSlice,
        context: ExecContext,
        stats: MetricsRegistry | None,
    ) -> SelectResult | AskResult:
        if stats is not None:
            stats.inc("sparql.scatter.semijoin.queries")
        graph = context.graph
        memo = context.filter_memo
        star_plans = [
            self._local_plan(backend, star.query) for star in sliced.stars
        ]
        estimates = [_min_pattern_count(graph, star) for star in star_plans]
        lead = 0 if estimates[0] <= estimates[1] else 1
        star_trail = sliced.stars[1 - lead]
        plan_lead, plan_trail = star_plans[lead], star_plans[1 - lead]
        join_names = sliced.join_names

        # Phase 1: the more selective star, full fan-out.
        batch_lead = self._gather(
            backend, plan_lead, "subject", stats=stats, memo=memo
        )
        keys_lead = list(
            zip(*(batch_lead.columns[plan_lead.slot_by_name[name]]
                  for name in join_names))
        )
        keyset = set(keys_lead)
        if stats is not None:
            stats.inc("sparql.scatter.rows_gathered", batch_lead.length)
            stats.inc(
                "sparql.scatter.semijoin.keys_shipped", len(keyset)
            )

        # Phase 2: ship the distinct join keys to the trailing star.
        if not keyset:
            batch_trail = ColumnBatch.empty(plan_trail.width)
        elif star_trail.variable.name in join_names:
            # The trailing star's subject is itself a join variable:
            # route each candidate subject id to its one owning shard and
            # seed the star run with it — only shards that can contribute
            # execute, and each scans only its shipped ids.
            position = join_names.index(star_trail.variable.name)
            subject_ids = sorted({key[position] for key in keyset})
            shard_count = backend.shard_count
            by_shard: dict[int, list] = {}
            for value in subject_ids:
                by_shard.setdefault(
                    shard_of_subject(value, shard_count), []
                ).append(value)
            seeds_by_shard = {
                index: (star_trail.variable.name, tuple(ids))
                for index, ids in by_shard.items()
            }
            if stats is not None:
                stats.inc(
                    "sparql.scatter.semijoin.shipped_ids", len(subject_ids)
                )
            batch_trail = self._gather(
                backend,
                plan_trail,
                "subject",
                seeds_by_shard=seeds_by_shard,
                stats=stats,
                memo=memo,
            )
        else:
            # The join variables are all non-subject positions of the
            # trailing star: broadcast the key set to every shard as a
            # per-shard semi-join filter.
            if stats is not None:
                stats.inc("sparql.scatter.semijoin.broadcasts")
            batch_trail = self._gather(
                backend,
                plan_trail,
                "subject",
                keys=(join_names, frozenset(keyset)),
                stats=stats,
                memo=memo,
            )
        if stats is not None:
            stats.inc(
                "sparql.scatter.rows_gathered", batch_trail.length
            )

        # Phase 3: hash join, gathering columns into the full plan's slot
        # layout (a flat two-star query binds no variable outside its
        # stars, so every slot comes from one side).
        buckets: dict = {}
        trail_keys = zip(
            *(batch_trail.columns[plan_trail.slot_by_name[name]]
              for name in join_names)
        )
        for j, key in enumerate(trail_keys):
            buckets.setdefault(key, []).append(j)
        lead_idx: list[int] = []
        trail_idx: list[int] = []
        for i, key in enumerate(keys_lead):
            bucket = buckets.get(key)
            if bucket:
                lead_idx.extend([i] * len(bucket))
                trail_idx.extend(bucket)
        columns: list = [None] * plan.width
        for star_plan, side, idx in (
            (plan_lead, batch_lead, lead_idx),
            (plan_trail, batch_trail, trail_idx),
        ):
            gathered = side.gather(idx)
            for name, slot in star_plan.slot_by_name.items():
                columns[plan.slot_by_name[name]] = gathered.columns[slot]
        joined = ColumnBatch(plan.width, columns, len(lead_idx))

        # Phase 4: only the residual filters — every pushed filter
        # already held on these bindings per shard.
        if sliced.residual and joined.length:
            joined = columnar.apply_filters(
                [plan.root.filters[index] for index in sliced.residual],
                joined,
                plan.width,
                ExecContext(graph, stats, memo),
            )
        if stats is not None:
            stats.inc(
                "sparql.scatter.semijoin.rows_joined", joined.length
            )
        if plan.is_ask:
            return AskResult(joined.length > 0)
        plan._resolve(graph)
        return plan._shape_select_batch(joined, context)
