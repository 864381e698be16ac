"""Observability layer: span-based tracing + the unified metrics registry.

The three pieces (see ``docs/observability.md``):

* :mod:`repro.obs.trace` — :class:`Span` trees built by a :class:`Tracer`
  with a thread-local open-span stack; :data:`NULL_TRACER` is the
  zero-overhead default wired into every pipeline component.
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry`
  (counters/gauges/histograms), the one accumulator that the stage
  timers, the pipeline, reliability, engine and storage counters and the
  trace aggregates are written into; merged with the engine cache
  statistics, it exports one ``repro.metrics/v1`` document.
* :mod:`repro.obs.export` — text rendering and JSON export for both.

Entry points: ``PipelineConfig(enable_tracing=True)`` (or
``repro ask --trace`` / ``repro explain`` on the CLI) turns the tracer on;
``QuestionAnsweringSystem.metrics()`` (or ``repro eval --metrics-out``)
produces the unified metrics document.
"""

from repro.obs.metrics import (
    METRICS_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import NULL_TRACER, NullTracer, Span, SpanEvent, Tracer
from repro.obs.export import (
    TRACE_SCHEMA,
    render_metrics,
    render_span_tree,
    trace_document,
    write_json,
    write_metrics,
)

__all__ = [
    "Span",
    "SpanEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "METRICS_SCHEMA",
    "TRACE_SCHEMA",
    "render_span_tree",
    "render_metrics",
    "trace_document",
    "write_json",
    "write_metrics",
]
