"""Cardinality bounding of the metrics registry (serving-layer satellite).

The serving layer emits per-stage and per-breaker families only, so a
healthy registry stays far below the cap; the cap exists to stop a bug
(per-question metric names) from turning ``repro.metrics/v1`` exports into
unbounded documents.  Drops are counted, never silent.
"""

from repro.obs.metrics import MAX_SERIES_PER_KIND, MetricsRegistry


def test_default_cap_is_generous_but_finite():
    assert 0 < MAX_SERIES_PER_KIND <= 10_000


def test_new_names_beyond_the_cap_are_dropped_and_counted():
    registry = MetricsRegistry(max_series=4)
    for index in range(10):
        registry.inc(f"per.question.{index}")  # the anti-pattern
    doc = registry.snapshot()
    # 4 admitted + the overflow counter itself.
    assert len(doc["counters"]) == 5
    assert doc["counters"]["metrics.dropped_series"] == 6


def test_existing_names_keep_updating_at_the_cap():
    registry = MetricsRegistry(max_series=2)
    registry.inc("serve.submitted")
    registry.inc("serve.completed")
    registry.inc("per.question.q42")  # dropped
    registry.inc("serve.submitted", 5)  # existing: always admitted
    doc = registry.snapshot()
    assert doc["counters"]["serve.submitted"] == 6
    assert "per.question.q42" not in doc["counters"]


def test_gauges_and_histograms_are_capped_independently():
    registry = MetricsRegistry(max_series=2)
    for index in range(4):
        registry.set_gauge(f"g{index}", index)
        registry.observe(f"h{index}", float(index))
    doc = registry.snapshot()
    assert len(doc["gauges"]) == 2
    assert len(doc["histograms"]) == 2
    assert doc["counters"]["metrics.dropped_series"] == 4


def test_serving_metric_families_are_per_stage_not_per_request(kb):
    """The server's own families never grow with traffic volume."""
    from repro.api import QuestionAnsweringSystem
    from repro.serve import ResilientServer, ServerConfig

    qa = QuestionAnsweringSystem.over(kb)
    with ResilientServer(qa, ServerConfig(workers=2)) as server:
        baseline = None
        for _ in range(3):
            server.answer("Which book is written by Orhan Pamuk?")
            names = {
                name
                for section in ("counters", "gauges")
                for name in server.metrics()[section]
                if name.startswith(("serve.", "breaker."))
            }
            if baseline is None:
                baseline = names
        assert names == baseline  # same series set, regardless of traffic
