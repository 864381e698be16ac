"""MetricsRegistry units and the repro.metrics/v1 schema golden test."""

import json
import sys
import threading

import pytest

from repro.obs import (
    METRICS_SCHEMA,
    Histogram,
    MetricsRegistry,
    Span,
    render_metrics,
    trace_document,
    write_metrics,
)


class TestRegistryUnit:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.inc("questions", 3)
        registry.inc("questions")
        registry.set_gauge("cache.size", 7)
        registry.set_gauge("cache.size", 9)  # last write wins
        registry.observe("latency", 2.0)
        registry.observe("latency", 4.0)
        doc = registry.snapshot()
        assert doc["counters"]["questions"] == 4
        assert doc["gauges"]["cache.size"] == 9
        assert doc["histograms"]["latency"] == {
            "count": 2, "total": 6.0, "mean": 3.0, "min": 2.0, "max": 4.0,
        }

    def test_histogram_merges_preaggregated_batches(self):
        histogram = Histogram()
        histogram.update(10, 5.0, 0.1, 1.5)
        histogram.update(5, 10.0, 0.05, 4.0)
        assert histogram.count == 15
        assert histogram.total == 15.0
        assert histogram.min == 0.05
        assert histogram.max == 4.0
        histogram.update(0, 99.0)  # empty batch is ignored
        assert histogram.count == 15

    def test_timer_accumulates(self):
        registry = MetricsRegistry()
        with registry.timer("stage"):
            pass
        with registry.timer("stage"):
            pass
        entry = registry.snapshot()["histograms"]["stage.stage.seconds"]
        assert entry["count"] == 2
        assert 0.0 <= entry["min"] <= entry["mean"] <= entry["max"]

    def test_counter_reads_zero_for_unknown_name(self):
        registry = MetricsRegistry()
        registry.inc("hits")
        registry.inc("hits", 4)
        assert registry.counter("hits") == 5
        assert registry.counter("unknown") == 0
        assert "unknown" not in registry.snapshot()["counters"]

    def test_concurrent_increments_do_not_lose_updates(self):
        registry = MetricsRegistry()

        def worker():
            for _ in range(1000):
                registry.inc("n")
                registry.observe("h", 1.0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert registry.counter("n") == 4000
        assert registry.snapshot()["histograms"]["h"]["count"] == 4000

    def test_absorb_cache_stats(self):
        registry = MetricsRegistry()
        registry.absorb_cache_stats(
            {"result_cache": {"hits": 5, "misses": 2, "label": "ignored"}}
        )
        doc = registry.snapshot()
        assert doc["gauges"]["sparql.result_cache.hits"] == 5
        assert doc["gauges"]["sparql.result_cache.misses"] == 2
        assert "sparql.result_cache.label" not in doc["gauges"]

    def test_absorb_span(self):
        root = Span("answer")
        child = root.child("cache.memo")
        root.add_event("degraded", fallback="x")
        root.close()
        registry = MetricsRegistry()
        registry.absorb_span(root)
        doc = registry.snapshot()
        assert doc["histograms"]["trace.answer.ms"]["count"] == 1
        assert doc["histograms"]["trace.cache.memo.ms"]["count"] == 1
        assert doc["counters"]["trace.events.degraded"] == 1
        assert child.closed

    def test_merge_is_lossless(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("n", 1)
        b.inc("n", 2)
        a.observe("h", 1.0)
        b.observe("h", 3.0)
        b.set_gauge("g", 5)
        a.merge(b)
        doc = a.snapshot()
        assert doc["counters"]["n"] == 3
        assert doc["histograms"]["h"]["count"] == 2
        assert doc["histograms"]["h"]["min"] == 1.0
        assert doc["histograms"]["h"]["max"] == 3.0
        assert doc["gauges"]["g"] == 5


class TestSchemaGolden:
    """The exported document's exact shape — the schema contract."""

    def test_empty_registry_document(self):
        assert MetricsRegistry().snapshot() == {
            "schema": "repro.metrics/v1",
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_document_shape_is_exact(self):
        registry = MetricsRegistry()
        registry.inc("b.counter")
        registry.inc("a.counter", 2)
        registry.set_gauge("z.gauge", 1.5)
        registry.observe("m.hist", 2.0)
        doc = registry.snapshot()
        # Top-level keys, nothing more, schema stamped.
        assert list(doc) == ["schema", "counters", "gauges", "histograms"]
        assert doc["schema"] == METRICS_SCHEMA == "repro.metrics/v1"
        # Names are sorted for reproducible artifacts/diffs.
        assert list(doc["counters"]) == ["a.counter", "b.counter"]
        # Histogram entries carry exactly the five aggregate fields.
        assert list(doc["histograms"]["m.hist"]) == [
            "count", "total", "mean", "min", "max",
        ]
        # The whole document is JSON-serialisable as-is.
        assert json.loads(json.dumps(doc)) == doc

    def test_system_metrics_document(self, traced_qa):
        traced_qa.answer("Which book is written by Orhan Pamuk?")
        doc = traced_qa.metrics()
        assert doc["schema"] == METRICS_SCHEMA
        # Stage timers arrive as histograms with real extremes...
        for stage in ("annotate", "extract", "map", "generate", "execute"):
            assert f"stage.{stage}.seconds" in doc["histograms"]
        stages = {
            name: entry for name, entry in doc["histograms"].items()
            if name.startswith("stage.") and name.endswith(".seconds")
        }
        for name, entry in stages.items():
            assert entry["min"] is not None and entry["max"] is not None, name
            assert entry["min"] <= entry["mean"] <= entry["max"], name
        # ...the engine caches as gauges...
        assert "sparql.result_cache.hits" in doc["gauges"]
        assert "sparql.parse_cache.hits" in doc["gauges"]
        # ...and the trace aggregates alongside them.
        assert doc["histograms"]["trace.answer.ms"]["count"] >= 1

    def test_write_metrics_refuses_unstamped_documents(self, tmp_path):
        with pytest.raises(ValueError, match="repro.metrics/v1"):
            write_metrics({"timers": {}}, tmp_path / "m.json")

    def test_write_metrics_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("n")
        path = write_metrics(registry.snapshot(), tmp_path / "m.json")
        assert json.loads(path.read_text()) == registry.snapshot()

    def test_trace_document_schema(self):
        root = Span("answer")
        root.close()
        doc = trace_document(root)
        assert doc["schema"] == "repro.trace/v1"
        assert doc["trace"]["name"] == "answer"

    def test_render_metrics_summarises(self):
        registry = MetricsRegistry()
        registry.inc("questions", 2)
        registry.observe("latency", 1.0)
        text = render_metrics(registry.snapshot())
        assert "repro.metrics/v1" in text
        assert "questions = 2" in text
        assert "latency" in text
