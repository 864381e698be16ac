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
2. **Scatter** — the query AST (frozen, picklable dataclasses) fans out to
   one task per shard, which runs the compiled plan's operator tree on a
   :class:`~repro.sparql.columnar.ColumnBatch` over a single-shard view;
   the dictionary is global, so constants and slot layouts resolve
   identically in every process.  All shards of one gather share one
   filter-verdict memo: a compiled filter reads only global ids, so its
   verdict for an id combination is the same on every shard.  Tasks run
   inline (``processes=0`` — deterministic, no pool) or on a lazily
   created ``multiprocessing`` pool (spawn-safe: workers re-open the
   segment directory in an initializer), returning their batches packed
   column-major as ``array('q')`` bytes.
3. **Gather** — the coordinator concatenates the per-shard batches in
   shard order and shapes them with
   :meth:`ColumnarQuery._shape_select_batch` (ORDER BY keys memoized per
   distinct id combination, each distinct id decoded once).  ORDER BY
   sorts with the engine's deterministic id-tuple tie-break, so ordered
   answers are **byte-identical** to single-process execution; unordered
   answers are multiset-identical (the documented engine contract).
   DISTINCT, OFFSET/LIMIT and aggregates see the complete solution set.

Per-shard results are cached in generation-stamped
:class:`~repro.kb.shard.ShardResultCache` instances (one per shard, on
the coordinator for inline mode — holding the batch itself, which is safe
because operators never mutate a column — and inside each worker for pool
mode).  The stamp combines the backend's content fingerprint with the
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
import os
import threading
from array import array
from itertools import chain

from repro.kb.shard import (
    SegmentedBackend,
    ShardResultCache,
    shard_of_subject,
)
from repro.perf.lru import LRUCache
from repro.perf.stats import PerfStats
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


# ---------------------------------------------------------------------------
# Worker side (runs in pool processes; also reused by inline mode)
# ---------------------------------------------------------------------------

#: Per-process caches: segment backends keyed by directory, columnar
#: plans keyed by (directory, frozen query AST) in a bounded LRU, per-shard
#: result caches keyed by (directory, partition kind, shard index).
#: Workers live for the pool's lifetime, so repeated queries against the
#: same segments compile once and hit warm shard caches.
_WORKER_BACKENDS: dict[str, SegmentedBackend] = {}
_WORKER_PLANS = LRUCache(DEFAULT_CACHE_SIZE)
_WORKER_CACHES: dict = {}

#: Result-cache capacity inside pool workers (entries per shard).
WORKER_CACHE_SIZE = 256


def _worker_backend(path: str) -> SegmentedBackend:
    backend = _WORKER_BACKENDS.get(path)
    if backend is None:
        backend = SegmentedBackend(path).open()
        _WORKER_BACKENDS[path] = backend
    return backend


def _worker_init(path: str) -> None:
    """Pool initializer: open the segment directory in this worker.

    Explicit initialization makes the pool **spawn-safe**: a spawned
    worker starts from a fresh interpreter with empty module globals, so
    nothing may rely on fork-inherited mapped state.  (Under fork this is
    merely a warm-up; the lazy :func:`_worker_backend` path stays as the
    fallback for directories seen after pool creation.)
    """
    _worker_backend(path)


def _worker_plan(path: str, backend: SegmentedBackend, query) -> ColumnarQuery:
    key = (path, query)
    plan = _WORKER_PLANS.get(key)
    if plan is None:
        # Compiled against the full view so pattern-selectivity planning
        # sees global counts; constants are global ids, valid per shard.
        plan = ColumnarQuery(query, backend.graph_view())
        _WORKER_PLANS.put(key, plan)
    return plan


def _execute_shard(
    plan: ColumnarQuery,
    view,
    seeds=None,
    keys=None,
    stats: PerfStats | None = None,
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
    context = ExecContext(view, stats, None, memo)
    batch = columnar._run_node(plan.root, context, batch, plan)
    if keys is not None and batch.length:
        names, keyset = keys
        key_columns = [batch.columns[plan.slot_by_name[n]] for n in names]
        batch = batch.gather(
            [i for i, key in enumerate(zip(*key_columns)) if key in keyset]
        )
    return batch


def _shard_task(
    path: str,
    kind: str,
    shard_index: int,
    query,
    seeds=None,
    keys=None,
    token=None,
) -> tuple[int, int, bytes, bool]:
    """Run ``query`` against one shard; return its packed batch.

    The return value is ``(shard_index, row_count, bytes, cache_hit)``
    where the bytes are the batch's id columns laid end to end
    (column-major) in one ``array('q')`` — compact to pickle back across
    the process boundary, and sliced straight back into columns on the
    coordinator.  ``token`` (when not ``None``) stamps this worker's
    per-shard result cache; a stale stamp — the coordinator bumps it on
    every hot KB reload — empties the cache before lookup.
    """
    backend = _worker_backend(path)
    cache = None
    cache_key = None
    if token is not None:
        cache = _WORKER_CACHES.get((path, kind, shard_index))
        if cache is None:
            cache = ShardResultCache(WORKER_CACHE_SIZE)
            _WORKER_CACHES[(path, kind, shard_index)] = cache
        cache_key = (query, seeds, _keys_token(keys))
        cached = cache.get(token, cache_key)
        if cached is not None:
            count, blob = cached
            return shard_index, count, blob, True
    plan = _worker_plan(path, backend, query)
    batch = _execute_shard(
        plan, backend.partition_view(kind, shard_index), seeds, keys
    )
    blob = array("q", chain.from_iterable(batch.columns)).tobytes()
    if cache is not None:
        cache.put(token, cache_key, (batch.length, blob))
    return shard_index, batch.length, blob, False


def _unpack_batch(count: int, blob: bytes, width: int) -> ColumnBatch:
    ids = array("q")
    ids.frombytes(blob)
    return ColumnBatch(
        width,
        [ids[slot * count : (slot + 1) * count] for slot in range(width)],
        count,
    )


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------


class ScatterGatherExecutor:
    """Fans compiled plans out across a segmented backend's shards.

    Install on an engine with
    :meth:`repro.sparql.SparqlEngine.install_scatter`; the engine then
    offers every plan via :meth:`maybe_execute`, which either answers it
    (partitionable queries large enough to fan out) or returns ``None``
    (engine falls back to ordinary full-view execution).

    ``processes=0`` runs shard tasks inline in the calling process —
    fully deterministic, no pool, the mode the differential tests pin
    down.  ``processes=N`` (or ``None`` for a CPU-bounded default) runs
    them on a lazily created ``multiprocessing`` pool; each worker maps
    the segment files itself, so peak RSS per process stays bounded by
    its own shard working set rather than the whole KB.  ``start_method``
    picks the pool's multiprocessing start method (default: ``fork``
    where available, the platform default elsewhere — workers are
    spawn-safe either way).

    One executor may be shared by many engines and serving threads (the
    :class:`repro.serve.ResilientServer` workers share one pool over one
    mapped segment directory): pool creation and cache bookkeeping are
    lock-protected, and :meth:`rebind` atomically points the executor at
    a reloaded backend while invalidating every per-shard result cache
    via the generation stamp.
    """

    def __init__(
        self,
        backend: SegmentedBackend,
        processes: int | None = None,
        stats: PerfStats | None = None,
        start_method: str | None = None,
        shard_cache_size: int = 256,
    ) -> None:
        self._backend = backend
        self._processes = processes
        self._stats = stats
        self._start_method = start_method
        self._shard_cache_size = shard_cache_size
        self._pool = None
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
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()

    def __enter__(self) -> "ScatterGatherExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def rebind(self, backend: SegmentedBackend) -> None:
        """Point the executor at a (possibly reloaded) backend.

        Called by the serving layer on every hot KB reload.  Bumps the
        cache generation so every per-shard result cache — coordinator
        and pool-worker alike — is empty for the next query, and drops
        the pool when the segment directory actually changed (workers
        would otherwise keep serving the old mapped files).
        """
        with self._lock:
            changed = (
                backend.path != self._backend.path
                or backend.fingerprint() != self._backend.fingerprint()
            )
            self._backend = backend
            self._generation += 1
            self._plans.clear()
            pool = None
            if changed:
                pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()
        if self._stats is not None:
            self._stats.increment("kb.shard_cache.invalidations")

    def invalidate_caches(self) -> None:
        """Empty every per-shard result cache (generation bump)."""
        with self._lock:
            self._generation += 1
        if self._stats is not None:
            self._stats.increment("kb.shard_cache.invalidations")

    def _effective_processes(self) -> int:
        if self._processes is not None:
            return self._processes
        return min(4, os.cpu_count() or 1)

    def _ensure_pool(self):
        with self._lock:
            if self._pool is None:
                import multiprocessing

                method = self._start_method
                if method is None:
                    methods = multiprocessing.get_all_start_methods()
                    method = "fork" if "fork" in methods else None
                context = multiprocessing.get_context(method)
                size = min(
                    self._effective_processes(), self._backend.shard_count
                )
                self._pool = context.Pool(
                    processes=max(1, size),
                    initializer=_worker_init,
                    initargs=(self._backend.path,),
                )
            return self._pool

    def _run_tasks(self, tasks) -> list:
        """Run shard tasks on the pool; never leak a broken pool.

        A raising task (e.g. a corrupt shard surfacing its
        ``SegmentIntegrityError`` in a worker) tears the pool down before
        the exception propagates, so the next query — or the next soak
        iteration — starts from a clean pool instead of a poisoned one.
        """
        pool = self._ensure_pool()
        try:
            return pool.starmap(_shard_task, tasks)
        except BaseException:
            self.close()
            raise

    # -- caches --------------------------------------------------------

    def _cache_token(self):
        if not self._shard_cache_size:
            return None
        return (
            self._backend.fingerprint()["content"],
            self._generation,
        )

    def _cache_for(self, kind: str, index: int) -> ShardResultCache:
        with self._lock:
            cache = self._caches.get((kind, index))
            if cache is None:
                cache = ShardResultCache(self._shard_cache_size)
                self._caches[(kind, index)] = cache
            return cache

    def _local_plan(self, query) -> ColumnarQuery:
        """The coordinator's columnar plan for a query AST, compiled once
        per distinct query (bounded LRU).  Star subqueries built by
        :func:`slice_two_star` compile here too."""
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
        graph_backend = getattr(context.graph, "backend", None)
        if graph_backend is not None and graph_backend is not self._backend:
            # The engine is serving a different KB than this executor's
            # pool (e.g. a hot reload raced the install): answering from
            # the pool would read the wrong segments.  Fall back.
            if stats is not None:
                stats.increment("sparql.scatter.foreign_graph_fallbacks")
            return None
        spec = partition_spec(
            plan.query, object_shards=self._backend.object_shard_count > 0
        )
        if spec is None:
            if stats is not None:
                stats.increment("sparql.scatter.fallback_queries")
            return None
        if _min_pattern_count(context.graph, plan) < FANOUT_MIN_ROWS:
            if stats is not None:
                stats.increment("sparql.scatter.local_queries")
            return None
        kind, payload = spec
        if stats is not None:
            stats.increment("sparql.scatter.queries")
        # One filter-verdict memo for every shard of this gather.
        memo: dict = {}
        if kind == "twostar":
            return self._execute_semijoin(plan, payload, context, stats, memo)
        if stats is not None and kind == "object":
            stats.increment("sparql.scatter.object_queries")
        batch = self._gather(
            plan, kind, stats=stats, ask=plan.is_ask, memo=memo
        )
        if stats is not None:
            stats.increment("sparql.scatter.rows_gathered", batch.length)
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
        plan: ColumnarQuery,
        kind: str,
        seeds_by_shard: dict | None = None,
        keys=None,
        stats: PerfStats | None = None,
        ask: bool = False,
        memo: dict | None = None,
    ) -> ColumnBatch:
        """The batch of ``plan`` over every shard of one partition (or
        just the seeded shards), concatenated in shard order."""
        if seeds_by_shard is not None:
            indices = sorted(seeds_by_shard)
        else:
            indices = list(range(self._backend.partition_count(kind)))
        if stats is not None:
            stats.increment("sparql.scatter.shards_scanned", len(indices))
        if self._effective_processes() == 0:
            batches = self._gather_inline(
                plan, kind, indices, seeds_by_shard, keys, stats, ask, memo
            )
        else:
            batches = self._gather_pool(
                plan, kind, indices, seeds_by_shard, keys, stats
            )
        if len(batches) == 1:
            return batches[0]
        return columnar.concat(batches, plan.width)

    def _gather_inline(
        self, plan, kind, indices, seeds_by_shard, keys, stats, ask, memo
    ) -> list:
        token = self._cache_token()
        keys_token = _keys_token(keys) if token is not None else None
        batches: list = []
        for index in indices:
            seeds = (
                None if seeds_by_shard is None else seeds_by_shard[index]
            )
            batch = cache = None
            if token is not None:
                cache = self._cache_for(kind, index)
                cache_key = (plan.query, seeds, keys_token)
                batch = cache.get(token, cache_key)
                if stats is not None:
                    stats.increment(
                        "kb.shard_cache.misses"
                        if batch is None
                        else "kb.shard_cache.hits"
                    )
            if batch is None:
                batch = _execute_shard(
                    plan,
                    self._backend.partition_view(kind, index),
                    seeds,
                    keys,
                    stats,
                    memo,
                )
                if cache is not None:
                    cache.put(token, cache_key, batch)
            batches.append(batch)
            if ask and batch.length:
                break  # ASK short-circuits at the first witness
        return batches

    def _gather_pool(
        self, plan, kind, indices, seeds_by_shard, keys, stats
    ) -> list:
        token = self._cache_token()
        path = self._backend.path
        tasks = [
            (
                path,
                kind,
                index,
                plan.query,
                None if seeds_by_shard is None else seeds_by_shard[index],
                keys,
                token,
            )
            for index in indices
        ]
        results = self._run_tasks(tasks)
        results.sort(key=lambda item: item[0])  # deterministic shard order
        batches: list = []
        for __, count, blob, cache_hit in results:
            if stats is not None:
                stats.increment(
                    "kb.shard_cache.hits"
                    if cache_hit
                    else "kb.shard_cache.misses"
                )
            batches.append(_unpack_batch(count, blob, plan.width))
        return batches

    # -- semi-join shipping --------------------------------------------

    def _execute_semijoin(
        self,
        plan: ColumnarQuery,
        sliced: TwoStarSlice,
        context: ExecContext,
        stats: PerfStats | None,
        memo: dict,
    ) -> SelectResult | AskResult:
        if stats is not None:
            stats.increment("sparql.scatter.semijoin.queries")
        graph = context.graph
        star_plans = [self._local_plan(star.query) for star in sliced.stars]
        estimates = [_min_pattern_count(graph, star) for star in star_plans]
        lead = 0 if estimates[0] <= estimates[1] else 1
        star_trail = sliced.stars[1 - lead]
        plan_lead, plan_trail = star_plans[lead], star_plans[1 - lead]
        join_names = sliced.join_names

        # Phase 1: the more selective star, full fan-out.
        batch_lead = self._gather(plan_lead, "subject", stats=stats, memo=memo)
        keys_lead = list(
            zip(*(batch_lead.columns[plan_lead.slot_by_name[name]]
                  for name in join_names))
        )
        keyset = set(keys_lead)
        if stats is not None:
            stats.increment("sparql.scatter.rows_gathered", batch_lead.length)
            stats.increment(
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
            shard_count = self._backend.shard_count
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
                stats.increment(
                    "sparql.scatter.semijoin.shipped_ids", len(subject_ids)
                )
            batch_trail = self._gather(
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
                stats.increment("sparql.scatter.semijoin.broadcasts")
            batch_trail = self._gather(
                plan_trail,
                "subject",
                keys=(join_names, frozenset(keyset)),
                stats=stats,
                memo=memo,
            )
        if stats is not None:
            stats.increment(
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
                stats,
            )
        if stats is not None:
            stats.increment(
                "sparql.scatter.semijoin.rows_joined", joined.length
            )
        if plan.is_ask:
            return AskResult(joined.length > 0)
        plan._resolve(graph)
        return plan._shape_select_batch(joined, context)
