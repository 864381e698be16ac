"""Concurrent cache-safety stress (serving-layer satellite).

Hammers a :class:`~repro.serve.ResilientServer` with a wide worker pool
over heavily overlapping questions — every worker hitting the same
annotation cache, similarity memos and result cache — and asserts that
concurrency changed *nothing observable*: per-question answers identical
to the sequential run, caches and metrics internally consistent.  The
whole batch is submitted before any future is awaited, so the workers
really overlap.  ``faulthandler_timeout`` in pyproject.toml turns a
deadlock here into a stack dump instead of a hung CI job.
"""

import pytest

from repro.core import QuestionAnsweringSystem
from repro.serve import ResilientServer, ServerConfig

QUESTIONS = [
    "Which book is written by Orhan Pamuk?",
    "How tall is Tom Cruise?",
    "Where was Steven Spielberg born?",
    "Who directed Jaws?",
    "What is the population of Turkey?",
    "Where did Freddie Mercury die?",
]


def serve_all(system, batch):
    """Submit the whole batch, then read the answers in input order."""
    with ResilientServer(system, ServerConfig(workers=8, max_queue=64)) as server:
        futures = [server.submit(text) for text in batch]
        return [future.result(timeout=60) for future in futures]


@pytest.mark.slow
def test_overlapping_batch_matches_sequential_answers(kb):
    system = QuestionAnsweringSystem.over(kb)
    sequential = {text: system.answer(text) for text in QUESTIONS}

    batch = QUESTIONS * 8  # 48 requests, every question contended 8 ways
    answers = serve_all(system, batch)

    assert [a.question for a in answers] == batch
    for answer in answers:
        expected = sequential[answer.question]
        assert [t.n3() for t in answer.answers] == [
            t.n3() for t in expected.answers
        ]
        assert answer.failure == expected.failure
        assert answer.degraded == []


@pytest.mark.slow
def test_caches_and_metrics_stay_consistent_under_contention(kb):
    system = QuestionAnsweringSystem.over(kb)
    serve_all(system, QUESTIONS * 8)

    for name, stats in system.kb.engine.cache_stats().items():
        if not isinstance(stats, dict) or "hits" not in stats:
            continue
        assert stats["hits"] >= 0 and stats["misses"] >= 0, name
        assert stats["size"] <= stats["maxsize"], name

    doc = system.metrics()
    counters = doc["counters"]
    # Unexpected-error count must be zero: no worker tripped the
    # last-resort handler, i.e. no exception escaped a stage under load.
    assert counters.get("reliability.unexpected_errors", 0) == 0
    # Every question went through the annotate stage exactly once.
    assert doc["histograms"]["stage.annotate.seconds"]["count"] >= len(QUESTIONS)
