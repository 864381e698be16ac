"""The query engine facade: parse, plan, execute, shape results.

The engine carries three LRU caches:

* a **parse cache** mapping query text to its AST (query parsing does not
  depend on graph contents, so entries never go stale);
* a **plan cache** mapping the (hashable, frozen) AST to its compiled
  id-space plan (:mod:`repro.sparql.compiler`).  Keyed on the AST's own
  structural hash, so queries submitted as pre-built ASTs — the QA hot
  path submits ``candidate.to_ast()`` directly — hit it just like textual
  queries.  Plans never go stale: constants resolved to dictionary ids
  stay valid forever (ids are append-only) and absent constants re-resolve
  per graph generation;
* a **result cache** mapping the AST to the computed result, invalidated
  wholesale whenever :attr:`repro.rdf.Graph.generation` moves — i.e. on
  any triple assertion or retraction.

The engine also keeps a cross-query **prefix memo**
(:class:`repro.sparql.compiler.PrefixMemo`): candidate queries for one
question share BGP join prefixes, and the memo lets a later candidate
resume from an earlier candidate's id-level prefix rows within a graph
generation.

All caches are thread-safe and both result types
(:class:`~repro.sparql.results.SelectResult`,
:class:`~repro.sparql.results.AskResult`) are immutable, so cached objects
are shared between callers without copying.

Queries execute as compiled id-space plans on the columnar batch
operators (:mod:`repro.sparql.columnar`).  Pass ``idspace=False`` for the
original term-space evaluator (:mod:`repro.sparql.executor`), retained as
the reference oracle for the differential tests and benchmarks.
"""

from __future__ import annotations

import threading
from typing import Iterable

from repro.obs.metrics import MetricsRegistry
from repro.perf.lru import LRUCache
from repro.rdf.datatypes import XSD_INTEGER
from repro.rdf.graph import Graph
from repro.rdf.order import order_key
from repro.rdf.terms import Literal, Term, Variable
from repro.sparql.ast import (
    AskQuery,
    CountAggregate,
    SelectQuery,
)
from repro.sparql.columnar import ColumnarQuery, compile_query
from repro.sparql.compiler import ExecContext, PrefixMemo
from repro.sparql.errors import SparqlError, SparqlTypeError
from repro.sparql.executor import Solution, evaluate_group
from repro.sparql.functions import evaluate as evaluate_expression
from repro.sparql.functions import invert_order as _invert
from repro.sparql.parser import parse_query
from repro.sparql.results import AskResult, SelectResult

#: Default width of the parse and result caches.  Sized for the QA
#: workload: one question executes at most ``max_queries`` (64) candidate
#: queries, so 512 holds several questions' worth of candidates plus the
#: type-checking lookups.
DEFAULT_CACHE_SIZE = 512


class SparqlEngine:
    """Executes SPARQL-subset queries against a :class:`repro.rdf.Graph`.

    >>> from repro.rdf import DBO, DBR, Graph, RDF, Triple
    >>> g = Graph([Triple(DBR.Snow, RDF.type, DBO.Book)])
    >>> engine = SparqlEngine(g)
    >>> result = engine.query("SELECT ?b WHERE { ?b a dbo:Book }")
    >>> [term.local_name for term in result.column("b")]
    ['Snow']

    A repeated query is answered from cache — until the graph mutates:

    >>> engine.query("SELECT ?b WHERE { ?b a dbo:Book }") is result
    True
    >>> g.add(Triple(DBR.My_Name_Is_Red, RDF.type, DBO.Book))
    True
    >>> len(engine.query("SELECT ?b WHERE { ?b a dbo:Book }"))
    2
    """

    def __init__(
        self,
        graph: Graph,
        cache_size: int = DEFAULT_CACHE_SIZE,
        stats: MetricsRegistry | None = None,
        idspace: bool = True,
    ) -> None:
        self._graph = graph
        self._stats = stats if stats is not None else MetricsRegistry()
        self._parse_cache = LRUCache(cache_size)
        self._result_cache = LRUCache(cache_size)
        # Plans never go stale (see module docstring), so the plan cache
        # stays on even when result caching is disabled — compiling per
        # call would just re-do structurally identical work.
        self._plan_cache = LRUCache(cache_size if cache_size > 0 else DEFAULT_CACHE_SIZE)
        self._prefix_memo = PrefixMemo()
        self._memo_generation = graph.generation
        self._cache_lock = threading.Lock()
        self._cached_generation = graph.generation
        self.cache_enabled = cache_size > 0
        self.idspace = idspace
        # Observability hook (docs/observability.md): tracing systems
        # install their tracers via add_tracer(); see _trace_event.
        self._tracers: tuple = ()
        # Optional scatter-gather executor (repro.sparql.scatter) consulted
        # per plan by _execute_plan; None keeps single-process execution.
        self._scatter = None

    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def stats(self) -> MetricsRegistry:
        """The engine's perf counters (shared with the owning system)."""
        return self._stats

    def add_tracer(self, tracer) -> None:
        """Install an observability tracer (docs/observability.md).

        The engine is shared by every system over one KB, and more than
        one of them may trace, so installed tracers accumulate; a cache
        hit/miss event goes to whichever installed tracer has a trace
        *open on the current thread* — i.e. onto the span of exactly the
        question that caused the lookup.  With none installed (the
        default) the hot path pays one empty-tuple truthiness check.
        """
        if tracer not in self._tracers:
            self._tracers = self._tracers + (tracer,)

    def install_scatter(self, executor) -> None:
        """Route shard-partitionable plans through a scatter-gather
        executor (:class:`repro.sparql.scatter.ScatterGatherExecutor`).

        Every compiled plan is offered to ``executor.maybe_execute``
        first; it answers the partitionable ones from the segment shards
        and returns ``None`` for the rest, which then execute on the
        single-process path exactly as before.  Pass ``None`` to
        uninstall.
        """
        self._scatter = executor

    def _trace_event(self, name: str, **attributes) -> None:
        for tracer in self._tracers:
            if tracer.active:
                tracer.event(name, **attributes)

    def cache_stats(self) -> dict[str, dict]:
        """Hit/miss snapshots of the parse, plan, and result caches.

        Folded into the ``repro.metrics/v1`` document as
        ``sparql.<cache>.<field>`` gauges by
        :meth:`repro.obs.metrics.MetricsRegistry.absorb_cache_stats`.
        """
        return {
            "parse_cache": self._parse_cache.stats(),
            "plan_cache": self._plan_cache.stats(),
            "result_cache": self._result_cache.stats(),
            "prefix_memo": {"size": len(self._prefix_memo)},
        }

    def clear_caches(self) -> None:
        self._parse_cache.clear()
        self._plan_cache.clear()
        self._result_cache.clear()
        self._prefix_memo.invalidate()

    # -- warm-state snapshot (repro.serve.snapshot) ---------------------

    def export_warm_state(self) -> dict:
        """Picklable warm-cache state for crash-safe restarts.

        Compiled plans are *not* serialised — they close over this graph's
        indexes — only their AST keys, recompiled on import (compilation is
        deterministic and cheap next to re-earning the result cache from
        traffic).  Results are exported as ``(ast, result)`` pairs, valid
        only for the exported graph generation.
        """
        return {
            "generation": self._graph.generation,
            "plan_keys": self._plan_cache.keys(),
            "results": self._result_cache.items(),
        }

    def import_warm_state(self, state: dict) -> dict[str, int]:
        """Restore :meth:`export_warm_state` output into the live caches.

        The caller (the snapshot layer) has already matched the KB
        fingerprint; the generation check here is the engine's own final
        guard against torn restores — results cached under a different
        graph generation never enter the cache.
        """
        if state["generation"] != self._graph.generation:
            raise ValueError(
                f"warm state is for graph generation {state['generation']}, "
                f"engine is at {self._graph.generation}"
            )
        plans = 0
        for ast in state["plan_keys"]:
            if self._plan_cache.get(ast) is None:
                self._plan_cache.put(ast, compile_query(ast, self._graph))
                plans += 1
        results = 0
        self._validate_result_cache()
        for ast, result in state["results"]:
            self._result_cache.put(ast, result)
            results += 1
        self._stats.inc("sparql.snapshot.plans_restored", plans)
        self._stats.inc("sparql.snapshot.results_restored", results)
        return {"plans": plans, "results": results}

    def query(self, query: str | SelectQuery | AskQuery) -> SelectResult | AskResult:
        """Run a query given as text or pre-parsed AST."""
        if isinstance(query, str):
            query = self._parse(query)
        if not isinstance(query, (SelectQuery, AskQuery)):
            raise SparqlError(f"unsupported query type {type(query).__name__}")
        # Plan lookup happens before the result-cache lookup on purpose:
        # plan-cache traffic then reflects every query submitted (text or
        # AST), not only result-cache misses, and the plan is already in
        # hand when a result-cache entry gets invalidated later.
        plan = self._plan(query) if self.idspace else None
        if not self.cache_enabled:
            return self._evaluate(query, plan)

        self._validate_result_cache()
        cached = self._result_cache.get(query)
        if cached is not None:
            self._stats.inc("sparql.result_cache.hits")
            if self._tracers:
                self._trace_event("sparql.result_cache", outcome="hit")
            return cached
        self._stats.inc("sparql.result_cache.misses")
        if self._tracers:
            self._trace_event("sparql.result_cache", outcome="miss")
        # Failure containment (docs/reliability.md): the cache is filled
        # only after a *successful* evaluation — an evaluation that raises
        # leaves both caches untouched, so a faulted run can never poison
        # the results a later clean run observes.
        try:
            result = self._evaluate(query, plan)
        except Exception:
            self._stats.inc("sparql.errors")
            raise
        self._result_cache.put(query, result)
        return result

    def _plan(self, query: SelectQuery | AskQuery) -> ColumnarQuery:
        """Fetch or compile the id-space plan for a query AST."""
        plan = self._plan_cache.get(query)
        if plan is not None:
            self._stats.inc("sparql.plan_cache.hits")
            if self._tracers:
                self._trace_event("sparql.plan_cache", outcome="hit")
            return plan
        self._stats.inc("sparql.plan_cache.misses")
        if self._tracers:
            self._trace_event("sparql.plan_cache", outcome="miss")
        plan = compile_query(query, self._graph)
        self._plan_cache.put(query, plan)
        return plan

    def _parse(self, text: str) -> SelectQuery | AskQuery:
        """Parse query text through the parse cache.

        Like the result cache, the parse cache only ever holds successful
        parses: a raising parse is counted and propagated, never stored.
        """
        if not self.cache_enabled:
            return parse_query(text)
        ast = self._parse_cache.get(text)
        if ast is not None:
            self._stats.inc("sparql.parse_cache.hits")
            if self._tracers:
                self._trace_event("sparql.parse_cache", outcome="hit")
            return ast
        self._stats.inc("sparql.parse_cache.misses")
        if self._tracers:
            self._trace_event("sparql.parse_cache", outcome="miss")
        try:
            ast = parse_query(text)
        except Exception:
            self._stats.inc("sparql.parse_errors")
            raise
        self._parse_cache.put(text, ast)
        return ast

    def _validate_result_cache(self) -> None:
        """Drop every cached result if the graph has mutated since filling.

        The generation check makes staleness impossible rather than
        unlikely: results enter the cache only at the generation observed
        here, and any later mutation moves the generation before the next
        lookup can hit.
        """
        generation = self._graph.generation
        with self._cache_lock:
            if generation != self._cached_generation:
                self._result_cache.clear()
                self._cached_generation = generation
                self._stats.inc("sparql.result_cache.invalidations")

    def _evaluate(
        self,
        query: SelectQuery | AskQuery,
        plan: ColumnarQuery | None = None,
    ) -> SelectResult | AskResult:
        if plan is not None:
            return self._execute_plan(plan)
        if isinstance(query, SelectQuery):
            return self._run_select(query)
        return self._run_ask(query)

    def _execute_plan(self, plan: ColumnarQuery) -> SelectResult | AskResult:
        # The prefix memo lives outside the result cache (it must also
        # serve cache-disabled engines), so it checks the generation here
        # on every execution rather than in _validate_result_cache.
        generation = self._graph.generation
        if generation != self._memo_generation:
            with self._cache_lock:
                if generation != self._memo_generation:
                    self._prefix_memo.invalidate()
                    self._memo_generation = generation
        context = ExecContext(self._graph, self._stats, self._prefix_memo)
        if self._scatter is not None:
            result = self._scatter.maybe_execute(plan, context)
            if result is not None:
                return result
        return plan.execute(context)

    def select(self, query: str | SelectQuery) -> SelectResult:
        """Run a SELECT query; raises on ASK input."""
        result = self.query(query)
        if not isinstance(result, SelectResult):
            raise SparqlError("expected a SELECT query")
        return result

    def ask(self, query: str | AskQuery) -> bool:
        """Run an ASK query, returning a plain bool."""
        result = self.query(query)
        if not isinstance(result, AskResult):
            raise SparqlError("expected an ASK query")
        return result.value

    # ------------------------------------------------------------------

    def _run_ask(self, query: AskQuery) -> AskResult:
        solutions = evaluate_group(self._graph, query.where)
        return AskResult(next(iter(solutions), None) is not None)

    def _run_select(self, query: SelectQuery) -> SelectResult:
        solutions = list(evaluate_group(self._graph, query.where))

        if query.is_aggregate:
            return self._aggregate(query, solutions)

        if query.select_all:
            seen: list[Variable] = []
            for solution in solutions:
                for variable in solution:
                    if variable not in seen:
                        seen.append(variable)
            variables = tuple(sorted(seen, key=lambda v: v.name))
        else:
            variables = tuple(
                p for p in query.projection if isinstance(p, Variable)
            )

        if query.order_by:
            # Deterministic tie-break shared with the id-space engines
            # (docs/performance.md): rows equal under every ORDER BY key
            # fall back to dictionary-id order over the solution variables
            # in name order, never inverted for DESC.
            tiebreak_variables = tuple(
                sorted(
                    {v for solution in solutions for v in solution},
                    key=lambda v: v.name,
                )
            )
            lookup = self._graph.lookup_id

            def sort_key(solution: Solution):
                keys = []
                for condition in query.order_by:
                    try:
                        value = evaluate_expression(condition.expression, solution)
                    except SparqlTypeError:
                        value = None
                    kind, within = order_key(value)
                    if condition.descending:
                        keys.append((-kind, _invert(within)))
                    else:
                        keys.append((kind, within))
                keys.append(
                    tuple(
                        lookup(solution[v]) if v in solution else -1
                        for v in tiebreak_variables
                    )
                )
                return tuple(keys)

            solutions.sort(key=sort_key)

        rows: list[tuple[Term | None, ...]] = [
            tuple(solution.get(variable) for variable in variables)
            for solution in solutions
        ]

        if query.distinct:
            rows = list(dict.fromkeys(rows))

        rows = self._slice(rows, query.offset, query.limit)
        return SelectResult(variables=variables, rows=tuple(rows))

    def _aggregate(self, query: SelectQuery, solutions: list[Solution]) -> SelectResult:
        if len(query.projection) != 1:
            raise SparqlError("COUNT cannot be mixed with other projections")
        aggregate = query.projection[0]
        assert isinstance(aggregate, CountAggregate)
        if aggregate.variable is None:
            count = len(solutions)
            if aggregate.distinct:
                count = len({tuple(sorted(s.items(), key=lambda kv: kv[0].name)) for s in solutions})
        else:
            values = [
                solution[aggregate.variable]
                for solution in solutions
                if aggregate.variable in solution
            ]
            count = len(set(values)) if aggregate.distinct else len(values)
        out_variable = aggregate.alias or Variable("count")
        row = (Literal(str(count), datatype=XSD_INTEGER),)
        return SelectResult(variables=(out_variable,), rows=(row,))

    @staticmethod
    def _slice(
        rows: list[tuple[Term | None, ...]], offset: int, limit: int | None
    ) -> list[tuple[Term | None, ...]]:
        if offset:
            rows = rows[offset:]
        if limit is not None:
            rows = rows[:limit]
        return rows


def select(graph: Graph, query: str) -> SelectResult:
    """One-shot SELECT over a graph."""
    return SparqlEngine(graph).select(query)


def ask(graph: Graph, query: str) -> bool:
    """One-shot ASK over a graph."""
    return SparqlEngine(graph).ask(query)
