"""Scatter-gather execution of compiled plans over KB segment shards.

The :class:`~repro.kb.shard.SegmentedBackend` partitions triples by a
hash of the **subject id**, which gives two classes of queries a
decomposition over its shards with no cross-shard deduplication:

* **subject-star** — every triple pattern's subject is the same variable.
  A solution binds that variable to one id whose triples all live in one
  subject shard, so per-shard execution partitions the global solution
  set exactly.
* **two-star** — a flat conjunction whose subjects form exactly two
  variables with at least one shared variable.  Executed as a semi-join:
  the more selective star (by minimum pattern count) runs per shard
  first, and the distinct id-tuples of its join variables are
  *broadcast* to every shard of the other star as a per-shard key filter
  (exact whichever positions the join variables take).  The coordinator
  hash-joins the two batches into the full plan's slot layout and applies
  only the **residual** filters (cross-star or variable-free ones; every
  other filter was pushed into a star by :func:`slice_two_star` and
  already held on the same bindings) before shaping the result.  Because
  BGP solutions over a set-graph are sets of assignments, the natural
  join of the two stars' solution sets *is* the full query's solution
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

Each shard keeps one :class:`~repro.perf.lru.LRUCache` of its result
batches (safe to share because operators never mutate a column), keyed
on the query and the broadcast key set.  An executor serves one
immutable backend for its whole life, so a cached batch never goes
stale; :meth:`ScatterGatherExecutor.invalidate_caches` drops every
shard cache to measure cold execution (``kb.shard_cache.*`` counters).

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

from repro.kb.shard import SegmentedBackend
from repro.obs.metrics import MetricsRegistry
from repro.perf.lru import LRUCache
from repro.rdf.terms import Variable
from repro.sparql import columnar
from repro.sparql.ast import BGP, Filter, TermExpr
from repro.sparql.columnar import ColumnarQuery, ColumnBatch
from repro.sparql.compiler import ExecContext, TwoStarSlice, slice_two_star
from repro.sparql.engine import DEFAULT_CACHE_SIZE
from repro.sparql.results import AskResult, SelectResult

#: Fan-out threshold: a partitionable plan whose most selective pattern
#: matches fewer rows than this runs single-process instead.  Fanning out
#: runs the plan once per shard (a seed batch, and a count and a scan per
#: pattern on every shard), and so few rows leave each shard too little
#: work to pay for that; single-process, routed scans touch one shard.
FANOUT_MIN_ROWS = 64

#: Entries per shard result cache (one cache per shard).
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
    triples = []
    for child in query.where.patterns:
        if isinstance(child, BGP):
            triples.extend(child.triples)
        elif not isinstance(child, Filter):
            return None
    if not triples:
        return None
    subject = triples[0].subject
    if not isinstance(subject, Variable):
        return None
    for triple in triples:
        if triple.subject != subject:
            return None
    return subject


def partition_spec(query):
    """Classify ``query`` for scatter execution.

    Returns ``("subject", Variable)``, ``("twostar", TwoStarSlice)``, or
    ``None`` (not partitionable).
    """
    variable = partition_variable(query)
    if variable is not None:
        return ("subject", variable)
    if not _slice_deterministic(query):
        return None
    sliced = slice_two_star(query)
    if sliced is not None:
        return ("twostar", sliced)
    return None


def _min_pattern_count(plan: ColumnarQuery) -> int:
    """Matches of the plan's most selective triple pattern: the counts
    its patterns took as it compiled, over the whole backend (an absent
    constant counts zero).  Sizes both the fan-out gate and the
    semi-join's lead star."""
    return min((pattern.count for pattern in plan._patterns), default=0)


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
    keys=None,
    stats: MetricsRegistry | None = None,
    memo: dict | None = None,
) -> ColumnBatch:
    """Run a compiled plan's operator tree over one shard view, columnar.

    ``keys`` — optional ``(names, keyset)`` broadcast filter: only rows
    whose id tuple over the named slots is in the set survive (per-shard
    semi-join).  ``memo`` is the gather's shared filter-verdict memo.
    Returns the slot-aligned batch, no result shaping.
    """
    context = ExecContext(view, stats, memo)
    batch = columnar._run_node(
        plan.root, context, ColumnBatch.seed(plan.width), plan
    )
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

    An executor serves the one backend it was built over.  Many engines
    and threads may share it (every cached shard batch with them): cache
    bookkeeping is lock-protected, and an engine over another backend (or
    over an in-heap graph) is declined plan by plan
    (``sparql.scatter.foreign_graph_fallbacks``).
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
        self._caches: dict[int, LRUCache] = {}
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------

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

    def invalidate_caches(self) -> None:
        """Drop every per-shard result cache (the next query runs cold)."""
        with self._lock:
            self._caches.clear()
        if self._stats is not None:
            self._stats.inc("kb.shard_cache.invalidations")

    # -- caches --------------------------------------------------------

    def _cache_for(self, index: int) -> LRUCache:
        with self._lock:
            cache = self._caches.get(index)
            if cache is None:
                cache = self._caches[index] = LRUCache(SHARD_CACHE_SIZE)
            return cache

    def _local_plan(self, query) -> ColumnarQuery:
        """The columnar plan for a star subquery built by
        :func:`slice_two_star`, compiled once per distinct query
        (bounded LRU)."""
        plan = self._plans.get(query)
        if plan is None:
            plan = ColumnarQuery(query, self._backend.graph_view())
            self._plans.put(query, plan)
        return plan

    # -- execution -----------------------------------------------------

    def maybe_execute(
        self, plan: ColumnarQuery, context: ExecContext
    ) -> SelectResult | AskResult | None:
        """Answer ``plan`` by scatter-gather, or ``None`` when it is not
        shard-partitionable or too small to fan out (the caller then
        executes it normally)."""
        stats = context.stats if context.stats is not None else self._stats
        if getattr(context.graph, "backend", None) is not self._backend:
            # The engine serves another KB than this executor's (another
            # segment directory, or an in-heap graph): answering would
            # read the wrong segments.  Fall back.
            if stats is not None:
                stats.inc("sparql.scatter.foreign_graph_fallbacks")
            return None
        spec = partition_spec(plan.query)
        if spec is None:
            if stats is not None:
                stats.inc("sparql.scatter.fallback_queries")
            return None
        if _min_pattern_count(plan) < FANOUT_MIN_ROWS:
            if stats is not None:
                stats.inc("sparql.scatter.local_queries")
            return None
        kind, payload = spec
        if stats is not None:
            stats.inc("sparql.scatter.queries")
        if kind == "twostar":
            return self._execute_semijoin(plan, payload, context, stats)
        # The execution's filter memo serves every shard of this gather.
        batch = self._gather(
            plan, stats=stats, ask=plan.is_ask, memo=context.filter_memo
        )
        if stats is not None:
            stats.inc("sparql.scatter.rows_gathered", batch.length)
        if plan.is_ask:
            return AskResult(batch.length > 0)
        # Global shaping on the coordinator: ORDER BY sorts the complete
        # batch under the engine's deterministic id-tuple tie-break
        # (byte-identical to single-process), DISTINCT/OFFSET/LIMIT and
        # aggregates see every shard's solutions.
        return plan._shape_select_batch(batch, context)

    # -- star gathering ------------------------------------------------

    def _gather(
        self,
        plan: ColumnarQuery,
        keys=None,
        stats: MetricsRegistry | None = None,
        ask: bool = False,
        memo: dict | None = None,
    ) -> ColumnBatch:
        """The batch of ``plan`` over every subject shard, concatenated in
        shard order.  Each shard's batch comes from its result cache when
        it holds one."""
        backend = self._backend
        shard_count = backend.shard_count
        if stats is not None:
            stats.inc("sparql.scatter.shards_scanned", shard_count)
        cache_key = (plan.query, _keys_token(keys))
        batches: list = []
        for index in range(shard_count):
            cache = self._cache_for(index)
            batch = cache.get(cache_key)
            if stats is not None:
                stats.inc(
                    "kb.shard_cache.misses"
                    if batch is None
                    else "kb.shard_cache.hits"
                )
            if batch is None:
                batch = _execute_shard(
                    plan, backend.shard_view(index), keys, stats, memo
                )
                cache.put(cache_key, batch)
            batches.append(batch)
            if ask and batch.length:
                break  # ASK short-circuits at the first witness
        if len(batches) == 1:
            return batches[0]
        return columnar.concat(batches, plan.width)

    # -- semi-join -----------------------------------------------------

    def _execute_semijoin(
        self,
        plan: ColumnarQuery,
        sliced: TwoStarSlice,
        context: ExecContext,
        stats: MetricsRegistry | None,
    ) -> SelectResult | AskResult:
        if stats is not None:
            stats.inc("sparql.scatter.semijoin.queries")
        graph = context.graph
        memo = context.filter_memo
        star_plans = [self._local_plan(star.query) for star in sliced.stars]
        estimates = [_min_pattern_count(star) for star in star_plans]
        lead = 0 if estimates[0] <= estimates[1] else 1
        plan_lead, plan_trail = star_plans[lead], star_plans[1 - lead]
        join_names = sliced.join_names

        # Phase 1: the more selective star, full fan-out.
        batch_lead = self._gather(plan_lead, stats=stats, memo=memo)
        keys_lead = list(
            zip(*(batch_lead.columns[plan_lead.slot_by_name[name]]
                  for name in join_names))
        )
        keyset = frozenset(keys_lead)
        if stats is not None:
            stats.inc("sparql.scatter.rows_gathered", batch_lead.length)
            stats.inc(
                "sparql.scatter.semijoin.keys_shipped", len(keyset)
            )

        # Phase 2: broadcast the distinct join keys to every shard of the
        # trailing star as a per-shard semi-join filter.
        if not keyset:
            batch_trail = ColumnBatch.empty(plan_trail.width)
        else:
            if stats is not None:
                stats.inc("sparql.scatter.semijoin.broadcasts")
            batch_trail = self._gather(
                plan_trail,
                keys=(join_names, keyset),
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
        return plan._shape_select_batch(joined, context)
