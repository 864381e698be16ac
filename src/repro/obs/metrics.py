"""The unified metrics registry: counters, gauges, histograms, one schema.

Every run statistic is written straight into a :class:`MetricsRegistry`:
the pipeline's stage timers (``stage.<name>.seconds`` histograms) and
counters, including every ``reliability.*`` counter, the SPARQL engine's
counters, the segment backend's ``kb.segments.*`` counters, the serving
layer's families and, when tracing is on, the ``trace.*`` aggregates of
the per-question span trees.  Each owner (system, engine, segment backend,
server) holds its own registry.  ``QuestionAnsweringSystem.metrics()``
merges them, adds the engine's LRU ``cache_stats()`` as gauges, and
returns one JSON-exportable document under the :data:`METRICS_SCHEMA`
schema; ``repro eval --metrics-out`` writes it to disk.

>>> registry = MetricsRegistry()
>>> registry.inc("questions")
>>> with registry.timer("annotate"):
...     pass
>>> registry.set_gauge("cache.size", 42)
>>> registry.counter("questions"), registry.counter("never.incremented")
(1, 0)
>>> doc = registry.snapshot()
>>> doc["schema"]
'repro.metrics/v1'
>>> doc["counters"]["questions"], doc["gauges"]["cache.size"]
(1, 42)
>>> doc["histograms"]["stage.annotate.seconds"]["count"]
1
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import Span

#: Schema identifier stamped on every exported metrics document.
METRICS_SCHEMA = "repro.metrics/v1"

#: Default cap on distinct series names per instrument family.  The cap
#: keeps an exported document O(1) in *traffic*: every legitimate series is
#: keyed by a bounded vocabulary (stage names, cache names, breaker names —
#: a few dozen at most), so a registry approaching the cap means some code
#: path is minting per-request names (e.g. a question id in a metric name),
#: which this layer refuses to amplify into an unbounded export.  Dropped
#: names are counted, never silent (``metrics.dropped_series``).
MAX_SERIES_PER_KIND = 1024

#: The overflow counter itself (always admitted, or the drop would be
#: invisible exactly when it matters).
_OVERFLOW_COUNTER = "metrics.dropped_series"


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float | int | None = None

    def set(self, value: float | int) -> None:
        self.value = value


class Histogram:
    """Aggregate distribution summary: count / total / min / max / mean.

    Deliberately not a bucketed histogram: the pipeline's consumers (the
    benchmark artifacts, the CI metrics job) need cheap summary statistics,
    an observation on the hot path is four field updates, and two
    summaries merge losslessly via :meth:`update` (how
    :meth:`MetricsRegistry.merge` folds the per-owner registries together).
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def update(
        self,
        count: int,
        total: float,
        minimum: float | None = None,
        maximum: float | None = None,
    ) -> None:
        """Fold a pre-aggregated batch of observations in."""
        if count <= 0:
            return
        self.count += count
        self.total += total
        if minimum is not None:
            self.min = minimum if self.min is None else min(self.min, minimum)
        if maximum is not None:
            self.max = maximum if self.max is None else max(self.max, maximum)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, float | int | None]:
        return {
            "count": self.count,
            "total": round(self.total, 6),
            "mean": round(self.mean, 6),
            "min": None if self.min is None else round(self.min, 6),
            "max": None if self.max is None else round(self.max, 6),
        }


class MetricsRegistry:
    """Thread-safe named counters, gauges and histograms.

    One lock guards the name tables; the instrument objects themselves are
    mutated under that same lock via the ``inc``/``set_gauge``/``observe``/
    ``timer`` methods, which is how the batch answerer's and the server's
    worker threads share a registry safely.

    ``max_series`` bounds the number of *distinct names* per instrument
    kind (see :data:`MAX_SERIES_PER_KIND`): a new name beyond the cap is
    dropped and tallied under ``metrics.dropped_series`` instead of
    growing the export without bound.  Existing names keep updating
    normally at any size.
    """

    def __init__(self, max_series: int = MAX_SERIES_PER_KIND) -> None:
        self._lock = threading.Lock()
        self._max_series = max_series
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def _admit(self, table: dict, name: str) -> bool:
        """Whether a *new* series name fits under the cardinality cap
        (caller holds the lock).  Drops are counted, never silent."""
        if len(table) < self._max_series or name == _OVERFLOW_COUNTER:
            return True
        counter = self._counters.get(_OVERFLOW_COUNTER)
        if counter is None:
            counter = self._counters[_OVERFLOW_COUNTER] = Counter()
        counter.inc()
        return False

    # -- instruments ---------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                if not self._admit(self._counters, name):
                    return
                counter = self._counters[name] = Counter()
            counter.value += amount

    def counter(self, name: str) -> int:
        """A counter's current value; 0 for a name never incremented."""
        with self._lock:
            counter = self._counters.get(name)
            return 0 if counter is None else counter.value

    def set_gauge(self, name: str, value: float | int) -> None:
        with self._lock:
            gauge = self._gauges.get(name)
            if gauge is None:
                if not self._admit(self._gauges, name):
                    return
                gauge = self._gauges[name] = Gauge()
            gauge.set(value)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                if not self._admit(self._histograms, name):
                    return
                histogram = self._histograms[name] = Histogram()
            histogram.observe(value)

    def timer(self, name: str) -> "_Timer":
        """Time a ``with`` block into the ``stage.<name>.seconds``
        histogram (wall time via ``perf_counter``)."""
        return _Timer(self, f"stage.{name}.seconds")

    def _histogram(self, name: str) -> Histogram | None:
        histogram = self._histograms.get(name)
        if histogram is None:
            if not self._admit(self._histograms, name):
                return None
            histogram = self._histograms[name] = Histogram()
        return histogram

    # -- absorption of the engine caches and traces --------------------

    def absorb_cache_stats(
        self, caches: Mapping[str, Mapping[str, Any]], prefix: str = "sparql."
    ) -> None:
        """Fold the engine's ``cache_stats()`` dicts in as gauges.

        Every numeric field of every per-cache dict lands as
        ``<prefix><cache>.<field>`` — for the current engine that yields
        the ``sparql.parse_cache.*``, ``sparql.plan_cache.*`` and
        ``sparql.result_cache.*`` families (hits/misses/hit_rate/
        evictions/size) plus ``sparql.prefix_memo.size``.  New caches
        added to the engine surface here with no registry changes.
        """
        for cache_name, stats in caches.items():
            if not isinstance(stats, Mapping):
                continue
            for field_name, value in stats.items():
                if isinstance(value, (int, float)):
                    self.set_gauge(f"{prefix}{cache_name}.{field_name}", value)

    def absorb_span(self, root: "Span") -> None:
        """Fold one closed trace tree into the trace histograms/counters.

        Every span contributes to a ``trace.<name>.ms`` histogram and every
        event to a ``trace.events.<name>`` counter, so a metrics document
        carries the aggregate shape of the traced questions next to the
        perf and reliability numbers.
        """
        for span in root.walk():
            self.observe(f"trace.{span.name}.ms", span.duration_ms)
            for event in span.events:
                self.inc(f"trace.events.{event.name}")

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's instruments into this one."""
        self.merge_snapshot(other.snapshot())

    def merge_snapshot(self, document: Mapping[str, Any]) -> None:
        """Fold an exported :meth:`snapshot` document into this registry
        (how :meth:`repro.serve.ResilientServer.metrics` layers the
        serving-layer families over the pipeline's own document)."""
        for name, value in document.get("counters", {}).items():
            self.inc(name, value)
        for name, value in document.get("gauges", {}).items():
            if value is not None:
                self.set_gauge(name, value)
        with self._lock:
            for name, entry in document.get("histograms", {}).items():
                histogram = self._histogram(name)
                if histogram is not None:
                    histogram.update(
                        entry["count"], entry["total"], entry["min"], entry["max"]
                    )

    # -- export --------------------------------------------------------

    def snapshot(self) -> dict:
        """The unified metrics document (see docs/observability.md)."""
        with self._lock:
            return {
                "schema": METRICS_SCHEMA,
                "counters": {
                    name: counter.value
                    for name, counter in sorted(self._counters.items())
                },
                "gauges": {
                    name: gauge.value
                    for name, gauge in sorted(self._gauges.items())
                },
                "histograms": {
                    name: histogram.as_dict()
                    for name, histogram in sorted(self._histograms.items())
                },
            }


class _Timer:
    """The context manager behind :meth:`MetricsRegistry.timer`: a plain
    slotted class, which costs less per ``with`` block than a generator
    wrapped by ``contextlib.contextmanager``."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: MetricsRegistry, name: str) -> None:
        self._registry = registry
        self._name = name

    def __enter__(self) -> None:
        self._start = time.perf_counter()

    def __exit__(self, *exc_info) -> None:
        self._registry.observe(self._name, time.perf_counter() - self._start)
