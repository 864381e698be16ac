"""Per-layer attribution for ``--trace 1`` runs.

The spans are recorded from the benchmark's own code: :class:`LayerTrace`
swaps each layer's entry point (a class method, or a module attribute the
caller looks up at call time) for a wrapper that records a
:class:`repro.obs.trace.Span` on a benchmark-owned
:class:`~repro.obs.trace.Tracer`, whose open-span stack is per thread.
Nothing in ``src/`` knows about it.

* A wrapped call is a span from call to return.
* A wrapped iterator (``kb.scan``) is a span whose duration is the time
  spent inside the iterator until it is used up or dropped; the caller's
  own work between items stays with the caller.
* Counted calls (``kb.decode``, ``Pipeline.annotate_uncached``) record no
  span, only a count.

Self time is a span's duration minus its children's.  Every finished
operation tree is folded into totals and dropped, except the first few,
which :meth:`LayerTrace.dump` writes as JSONL when the run ends.

Which end-to-end metric each per-layer metric should move, and on which
workload, is :data:`PREDICTIONS`; ``compare.py`` prints it beside each
per-layer result.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter, defaultdict

#: Layers reported as ``<layer>.self_ms`` and ``<layer>.share``.  The
#: root (``bench.op``) keeps what no wrapped layer covers: the client's
#: own loop and, behind the server, queueing and hand-off.
LAYERS = (
    "bench.op",
    "serve.request",
    "core.system",
    "nlp.annotate",
    "core.extraction",
    "core.mapping",
    "core.querygen",
    "sparql.query",
    "sparql.compile",
    "sparql.scatter",
    "kb.scan",
    "kb.count",
    "core.typecheck",
)

#: Setup layers, reported in seconds per setup.
SETUP_LAYERS = {
    "kb.load": "kb.load_s",
    "kb.index": "kb.index_s",
    "patty.mine": "patty.mine_s",
    "wordnet.build": "wordnet.build_s",
}

#: Operation trees kept for the JSONL dump.
KEEP_TREES = 50

#: What a change in each per-layer metric should do, written down before
#: any change is measured: (per-layer metrics, the end-to-end metrics they
#: should move, the workloads they should move them on, the workloads on
#: which those end-to-end metrics should not move).  Each per-layer
#: metric of BENCHMARK.json is in exactly one row.
PREDICTIONS = (
    (("kb.load_s",),
     ("setup_s",), ("sparql-joins", "qald-curated"), ("synth-segments",)),
    (("kb.index_s",),
     ("setup_s",), ("synth-segments",), ("sparql-joins", "qald-curated")),
    (("patty.mine_s", "wordnet.build_s"),
     ("setup_s",), ("synth-segments", "qald-curated"), ("sparql-joins",)),
    (("bench.op.self_ms", "bench.op.share",
      "serve.request.self_ms", "serve.request.share",
      "serve.queue_wait_ms", "serve.queue_wait_tail_ms", "serve.service_ms"),
     ("warm_p50_ms", "warm_tail_ms"), ("synth-segments",),
     ("qald-curated", "sparql-joins")),
    (("core.system.self_ms", "core.system.share"),
     ("warm_p50_ms",), ("qald-curated",), ("sparql-joins",)),
    (("nlp.annotate.self_ms", "nlp.annotate.share", "nlp.annotate.miss_rate"),
     ("cold_p50_ms", "warm_p50_ms"), ("qald-curated", "synth-segments"),
     ("sparql-joins",)),
    (("core.extraction.self_ms", "core.extraction.share",
      "core.extraction.patterns_per_q", "reliability.fallbacks_per_q"),
     ("cold_p50_ms",), ("qald-curated",), ("sparql-joins",)),
    (("core.mapping.self_ms", "core.mapping.share",
      "core.mapping.predicates_per_q", "similarity.memo.hit_rate",
      "mapping.scan_cache.hit_rate"),
     ("cold_p50_ms", "cold_tail_ms"), ("qald-curated",), ("sparql-joins",)),
    (("core.querygen.self_ms", "core.querygen.share",
      "core.querygen.candidates_per_q"),
     ("cold_p50_ms",), ("qald-curated", "synth-segments"), ("sparql-joins",)),
    (("sparql.query.self_ms", "sparql.query.share", "sparql.query.calls_per_op",
      "sparql.useful_ratio", "sparql.rows_per_query"),
     ("cold_p50_ms", "cold_tail_ms"), ("sparql-joins", "synth-segments"), ()),
    (("sparql.result_cache.hit_rate",),
     ("warm_p50_ms",), ("synth-segments", "qald-curated"), ("sparql-joins",)),
    (("sparql.compile.self_ms", "sparql.compile.share",
      "sparql.plan_cache.hit_rate"),
     ("cold_p50_ms",), ("synth-segments",), ("qald-curated",)),
    (("sparql.scatter.self_ms", "sparql.scatter.share",
      "sparql.scatter.taken_ratio", "kb.shard_cache.hit_rate",
      "sparql.scatter.semijoin_keys_per_q"),
     ("cold_p50_ms", "cold_tail_ms"), ("sparql-joins", "synth-segments"),
     ("qald-curated",)),
    (("kb.scan.self_ms", "kb.scan.share", "kb.count.self_ms", "kb.count.share",
      "kb.scan.calls_per_op", "kb.decode.calls_per_op"),
     ("cold_p50_ms", "peak_rss_mb"), ("sparql-joins", "synth-segments"),
     ("qald-curated",)),
    (("core.typecheck.self_ms", "core.typecheck.share",
      "core.typecheck.kept_ratio"),
     ("cold_p50_ms",), ("synth-segments",), ("sparql-joins",)),
    (("bench.root_ms",),
     ("cold_p50_ms", "warm_p50_ms"),
     ("qald-curated", "synth-segments", "sparql-joins"), ()),
    # Checks on the run itself: they move no end-to-end metric.
    (("bench.attributed_frac", "bench.trace_overhead_frac",
      "bench.answered_frac"), (), (), ()),
)


def prediction(metric: str) -> str:
    """One line: what ``metric`` should move, from :data:`PREDICTIONS`."""
    for names, moves, on, still in PREDICTIONS:
        if metric in names:
            if not moves:
                return "a check on the run; moves nothing"
            text = f"moves {', '.join(moves)} on {', '.join(on)}"
            return text + (f"; not on {', '.join(still)}" if still else "")
    raise KeyError(metric)


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile of an unsorted sample (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(fraction * len(ordered) + 0.5) - 1))
    return ordered[index]


class LayerTrace:
    """Installs layer wrappers and folds spans into per-layer totals."""

    enabled = True

    def __init__(self) -> None:
        from repro.obs.trace import Span, Tracer

        self._span_type = Span
        self.tracer = Tracer()
        self._lock = threading.Lock()
        self._installed: list = []
        self.self_ms: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.setup_layer_s: dict[str, float] = defaultdict(float)
        self.setups = 0
        self.ops = 0
        self.root_ms = 0.0
        self.over_attributed_ms = 0.0
        self.queue_wait_ms: list[float] = []
        self.service_ms: list[float] = []
        self.kept: list = []
        #: future -> (operation span, submit time); filled when the
        #: server builds its request, emptied when a worker picks it up.
        self._pending: dict = {}
        self._local = threading.local()

    # -- installing wrappers ---------------------------------------------

    def _op_targets(self) -> list:
        from repro.core import system
        from repro.core.extraction import TripleExtractor
        from repro.core.mapping import TripleMapper
        from repro.core.querygen import QueryGenerator
        from repro.kb.segment import SegmentDictionary, SegmentShard
        from repro.nlp.pipeline import Pipeline
        from repro.rdf.graph import Graph
        from repro.serve import server
        from repro.sparql import engine
        from repro.sparql.scatter import ScatterGatherExecutor

        call, count, iterate = self._call, self._count, self._iterate
        return [
            (system.QuestionAnsweringSystem, "answer",
             call("core.system", self._on_answer)),
            (Pipeline, "annotate", call("nlp.annotate")),
            (Pipeline, "annotate_uncached", count("nlp.annotate.misses")),
            (TripleExtractor, "extract",
             call("core.extraction", self._tally("patterns"))),
            (TripleMapper, "map", call("core.mapping", self._on_map)),
            (QueryGenerator, "generate",
             call("core.querygen", self._tally("candidates"))),
            (engine.SparqlEngine, "query", call("sparql.query", self._on_query)),
            (engine, "compile_query", call("sparql.compile")),
            (ScatterGatherExecutor, "maybe_execute",
             call("sparql.scatter", self._on_scatter)),
            (system, "answer_matches_type",
             call("core.typecheck", self._on_typecheck)),
            (SegmentShard, "scan", iterate("kb.scan")),
            (Graph, "match_ids", iterate("kb.scan")),
            (SegmentShard, "count", call("kb.count")),
            (Graph, "count_ids", call("kb.count")),
            (SegmentDictionary, "decode", count("kb.decode")),
            (Graph, "decode_id", count("kb.decode")),
            (server._Request, "__init__", self._on_request),
            (server.ResilientServer, "_serve_one", self._on_serve),
        ]

    def _setup_targets(self) -> list:
        from repro.core import system

        call = self._call
        return [
            (system, "build_pattern_store", call("patty.mine")),
            (system, "build_wordnet", call("wordnet.build")),
            (system, "build_similar_property_pairs", call("wordnet.build")),
            (system, "build_adjective_map", call("wordnet.build")),
        ]

    def _install(self, targets) -> None:
        for owner, name, make in targets:
            original = (owner.__dict__[name] if isinstance(owner, type)
                        else getattr(owner, name))
            self._installed.append((owner, name, original))
            setattr(owner, name, make(original))

    @property
    def active(self) -> bool:
        """Whether wrappers are installed (a traced phase or setup)."""
        return bool(self._installed)

    def uninstall(self) -> None:
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    def start_ops(self) -> None:
        """Trace operations (not setup) until :meth:`uninstall`."""
        self.uninstall()
        self._install(self._op_targets())

    def start_setup(self) -> None:
        """Trace setup (not operations) until :meth:`uninstall`."""
        self.uninstall()
        self._install(self._setup_targets())

    # -- wrapper factories -----------------------------------------------

    def _call(self, layer: str, observe=None):
        tracer = self.tracer

        def make(original):
            def wrapper(*args, **kwargs):
                span = tracer.open_span(layer)
                if span is None:
                    return original(*args, **kwargs)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.close_span(span)
                if observe is not None:
                    observe(result)
                return result
            return wrapper
        return make

    def _count(self, counter: str):
        tracer, add = self.tracer, self._add

        def make(original):
            def wrapper(*args, **kwargs):
                if tracer.active:
                    add(counter)
                return original(*args, **kwargs)
            return wrapper
        return make

    def _iterate(self, layer: str):
        tracer, span_type = self.tracer, self._span_type

        def timed(iterator, parent):
            clock = time.perf_counter
            start = clock()
            inside = 0.0
            try:
                while True:
                    before = clock()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        inside += clock() - before
                        return
                    inside += clock() - before
                    yield item
            finally:
                parent.children.append(
                    span_type(name=layer, _start=start, _end=start + inside)
                )

        def make(original):
            def wrapper(*args, **kwargs):
                parent = tracer.current()
                iterator = original(*args, **kwargs)
                if parent is None:
                    return iterator
                return timed(iter(iterator), parent)
            return wrapper
        return make

    # -- observers (what a layer's result says about its work) ------------

    def _add(self, counter: str, amount: int = 1) -> None:
        # Server worker threads observe while the client thread folds.
        with self._lock:
            self.counts[counter] += amount

    def _tally(self, what: str):
        def observe(result) -> None:
            self._add(what, len(result))
        return observe

    def _on_answer(self, answer) -> None:
        self._add("answers")
        self._add("winners", answer.query is not None)
        self._add("fallbacks", len(answer.degraded))

    def _on_map(self, mapped) -> None:
        self._add("predicates", sum(len(c.predicates) for c in mapped))

    def _on_query(self, result) -> None:
        rows = getattr(result, "rows", None)
        self._add("query_rows", 1 if rows is None else len(rows))
        self._add("nonempty_results", bool(rows if rows is not None else result.value))

    def _on_scatter(self, result) -> None:
        self._add("scatter_taken", result is not None)

    def _on_typecheck(self, kept) -> None:
        self._add("typecheck_kept", bool(kept))

    # -- the serving layer: queue wait and worker-side trees ---------------

    def _on_request(self, original):
        def wrapper(request, question, future, deadline, degraded):
            op = getattr(self._local, "op", None)
            if op is not None:
                self._pending[future] = (op, time.perf_counter())
            original(request, question, future, deadline, degraded)
        return wrapper

    def _on_serve(self, original):
        tracer = self.tracer

        def wrapper(server, request):
            pending = self._pending.pop(request.future, None)
            if pending is None:
                return original(server, request)
            op, submitted = pending
            waited_ms = (time.perf_counter() - submitted) * 1e3
            root = tracer.begin_trace("serve.request")
            # Attached before the work: resolving the future wakes the
            # client, which may fold the operation before this returns.
            op.children.append(root)
            try:
                original(server, request)
            finally:
                tracer.end_trace(root)
                with self._lock:
                    self.queue_wait_ms.append(waited_ms)
                    self.service_ms.append(root.duration_ms)
        return wrapper

    # -- operations and setups ----------------------------------------------

    def begin_op(self):
        """Open an operation's root span on this thread (``None`` outside
        a traced phase)."""
        return self.tracer.begin_trace("bench.op") if self.active else None

    def end_op(self, root) -> None:
        if root is not None:
            self.tracer.end_trace(root)
            self.fold(root)

    def detached_op(self, start: float):
        """The root span of an operation served by server workers; its
        clock starts at ``start``.  Submit it
        between :meth:`submitting` calls, close it when its future
        resolves, and :meth:`fold` it once the client has its answer.
        ``None`` outside a traced phase."""
        if not self.active:
            return None
        return self._span_type(name="bench.op", _start=start)

    def submitting(self, op) -> None:
        """Mark ``op`` (or ``None``) as what this thread submits next."""
        self._local.op = op

    def fold(self, root) -> None:
        if root is None:
            return
        root.close()
        with self._lock:
            self.ops += 1
            self.root_ms += root.duration_ms
            stack = [root]
            while stack:
                span = stack.pop()
                children = span.children
                own = span.duration_ms - sum(child.duration_ms for child in children)
                if own < 0:
                    self.over_attributed_ms -= own
                self.self_ms[span.name] += own
                self.calls[span.name] += 1
                stack.extend(children)
            if len(self.kept) < KEEP_TREES:
                self.kept.append(root)

    def setup_span(self, layer: str):
        """``with trace.setup_span("kb.load"):`` around a setup step."""
        return self.tracer.span(layer)

    def begin_setup(self):
        self.start_setup()
        return self.tracer.begin_trace("bench.setup")

    def end_setup(self, root) -> None:
        self.tracer.end_trace(root)
        self.uninstall()
        self.setups += 1
        for span in root.walk():
            if span.name in SETUP_LAYERS:
                self.setup_layer_s[span.name] += span.duration_ms / 1e3

    # -- counters kept by the program ------------------------------------

    def absorb_counters(self, before: dict, after: dict) -> None:
        """Add the growth of the program's own counters between two
        ``metrics()["counters"]`` snapshots."""
        for name, value in after.items():
            self.counts["program:" + name] += value - before.get(name, 0)

    # -- reporting ----------------------------------------------------------

    def metrics(self) -> dict:
        """The per-layer metrics the spans and counts give, by name."""
        ops = max(self.ops, 1)
        root = self.root_ms or 1.0
        counts, calls = self.counts, self.calls

        def rate(cache: str) -> float:
            hits = counts[f"program:{cache}.hits"]
            total = hits + counts[f"program:{cache}.misses"]
            return hits / total if total else 0.0

        def share(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        out: dict[str, float] = {}
        for layer, name in SETUP_LAYERS.items():
            out[name] = self.setup_layer_s[layer] / max(self.setups, 1)
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = self.self_ms[layer] / ops
            out[f"{layer}.share"] = self.self_ms[layer] / root
        queries = calls["sparql.query"]
        out.update({
            "nlp.annotate.miss_rate":
                share(counts["nlp.annotate.misses"], calls["nlp.annotate"]),
            "core.extraction.patterns_per_q": counts["patterns"] / ops,
            "reliability.fallbacks_per_q": counts["fallbacks"] / ops,
            "core.mapping.predicates_per_q": counts["predicates"] / ops,
            "similarity.memo.hit_rate": rate("similarity.memo"),
            "mapping.scan_cache.hit_rate": rate("mapping.scan_cache"),
            "core.querygen.candidates_per_q": counts["candidates"] / ops,
            "sparql.query.calls_per_op": queries / ops,
            "sparql.useful_ratio": share(self._useful(), queries),
            "sparql.result_cache.hit_rate": rate("sparql.result_cache"),
            "sparql.plan_cache.hit_rate": rate("sparql.plan_cache"),
            "sparql.rows_per_query": share(counts["query_rows"], queries),
            "sparql.scatter.taken_ratio":
                share(counts["scatter_taken"], calls["sparql.scatter"]),
            "kb.shard_cache.hit_rate": rate("kb.shard_cache"),
            "sparql.scatter.semijoin_keys_per_q":
                counts["program:sparql.scatter.semijoin.keys_shipped"] / ops,
            "kb.scan.calls_per_op": calls["kb.scan"] / ops,
            "kb.decode.calls_per_op": counts["kb.decode"] / ops,
            "core.typecheck.kept_ratio":
                share(counts["typecheck_kept"], calls["core.typecheck"]),
            "serve.queue_wait_ms": percentile(self.queue_wait_ms, 0.5),
            "serve.queue_wait_tail_ms": percentile(self.queue_wait_ms, 0.99),
            "serve.service_ms": percentile(self.service_ms, 0.5),
            "bench.root_ms": self.root_ms / ops,
            "bench.attributed_frac":
                share(self.root_ms + self.over_attributed_ms, root),
        })
        return out

    def _useful(self) -> int:
        # Question workloads: the one query per question whose answers
        # were returned.  Query workloads: every non-empty result is the
        # operation's own answer.
        if self.counts["answers"]:
            return self.counts["winners"]
        return self.counts["nonempty_results"]

    def dump(self, path: str) -> None:
        """Write the kept operation trees as JSONL."""
        with open(path, "w", encoding="utf-8") as handle:
            for root in self.kept:
                handle.write(json.dumps(root.to_dict()) + "\n")
