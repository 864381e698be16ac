"""Tracer unit tests and span-tree invariants over the real pipeline."""

import threading

import pytest

from repro.api import PipelineConfig, QuestionAnsweringSystem
from repro.obs import NULL_TRACER, Span, Tracer, render_span_tree

#: Stages that must appear, in order, in any fully answered trace.
PIPELINE_ORDER = ["annotate", "extract", "map", "generate", "execute"]


class TestTracerUnit:
    def test_begin_end_builds_closed_root(self):
        tracer = Tracer()
        root = tracer.begin_trace("answer", question="q")
        assert tracer.active
        tracer.end_trace(root)
        assert root.closed
        assert not tracer.active

    def test_nested_spans_form_a_tree(self):
        tracer = Tracer()
        root = tracer.begin_trace("answer")
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.event("hit", outcome="yes")
        tracer.end_trace(root)
        outer = root.children[0]
        assert [s.name for s in root.walk()] == ["answer", "outer", "inner"]
        assert outer.children[0].events[0].attributes == {"outcome": "yes"}

    def test_span_outside_trace_is_noop(self):
        tracer = Tracer()
        with tracer.span("orphan") as span:
            assert span is None
        tracer.event("dropped")  # must not raise
        assert not tracer.active

    def test_sampling_is_deterministic(self):
        tracer = Tracer(sample_every=3)
        roots = []
        for _ in range(9):
            root = tracer.begin_trace("answer")
            roots.append(root)
            tracer.end_trace(root)
        assert [root is not None for root in roots] == [True, False, False] * 3

    def test_sample_every_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(sample_every=0)

    def test_end_trace_closes_leaked_children(self):
        # A stage that escapes via exception leaves its span on the stack;
        # end_trace must still close everything and empty the stack.
        tracer = Tracer()
        root = tracer.begin_trace("answer")
        leaked = Span("leaked")
        root.children.append(leaked)
        tracer._stack().append(leaked)
        tracer.end_trace(root)
        assert leaked.closed and root.closed
        assert not tracer.active

    def test_stack_is_thread_local(self):
        tracer = Tracer()
        root = tracer.begin_trace("answer")
        seen = {}

        def probe():
            seen["active"] = tracer.active

        thread = threading.Thread(target=probe)
        thread.start()
        thread.join()
        assert seen["active"] is False  # other thread sees no open trace
        tracer.end_trace(root)

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.active is False
        assert NULL_TRACER.begin_trace("x") is None
        with NULL_TRACER.span("x") as span:
            assert span is None
        NULL_TRACER.event("x")
        NULL_TRACER.annotate(a=1)
        NULL_TRACER.end_trace(None)

    def test_instant_child_has_zero_duration(self):
        root = Span("answer")
        child = root.child("cache.memo", hits=3)
        assert child.closed
        assert child.duration_ms == 0.0
        assert root.children == [child]


class TestSpanTreeInvariants:
    """Invariants of the trace a real answered question produces."""

    def test_every_span_closed(self, traced_qa):
        trace = traced_qa.answer("Who wrote The Pillars of the Earth?").trace
        assert trace is not None
        for span in trace.walk():
            assert span.closed, f"span {span.name!r} left open"

    def test_stage_order_matches_pipeline(self, traced_qa):
        trace = traced_qa.answer("Which book is written by Orhan Pamuk?").trace
        stages = [s.name for s in trace.children if s.name in PIPELINE_ORDER]
        assert stages == PIPELINE_ORDER

    def test_child_duration_within_parent(self, traced_qa):
        trace = traced_qa.answer("Who is the mayor of Berlin?").trace
        for span in trace.children:
            assert span.duration_ms <= trace.duration_ms + 1e-6

    def test_root_carries_outcome_attributes(self, traced_qa):
        answer = traced_qa.answer("Which book is written by Orhan Pamuk?")
        attrs = answer.trace.attributes
        assert attrs["answered"] is True
        assert attrs["answers"] == len(answer.answers)
        assert attrs["question"] == answer.question

    def test_failed_question_still_traced(self, traced_qa):
        answer = traced_qa.answer("Is Frank Herbert still alive?")
        assert not answer.answered
        assert answer.trace is not None
        assert answer.trace.closed
        events = [e.name for e in answer.trace.events]
        assert "failure" in events

    def test_map_stage_has_cache_children_and_ranking_event(self, traced_qa):
        trace = traced_qa.answer("Who wrote The Pillars of the Earth?").trace
        map_span = trace.find("map")
        assert map_span is not None
        cache_children = [
            s.name for s in map_span.children if s.name.startswith("cache.")
        ]
        assert "cache.similarity.memo" in cache_children
        assert any(e.name == "predicate-candidates" for e in map_span.events)

    def test_execute_stage_records_candidate_events(self, traced_qa):
        trace = traced_qa.answer("Who wrote The Pillars of the Earth?").trace
        execute = trace.find("execute")
        candidates = [e for e in execute.events if e.name == "candidate"]
        assert candidates
        assert candidates[-1].attributes["outcome"] == "winner"
        assert any(
            e.name == "sparql.result_cache" for e in execute.events
        )

    def test_sampling_skips_untraced_questions(self, kb):
        system = QuestionAnsweringSystem.over(
            kb, PipelineConfig().with_tracing(sample_every=2)
        )
        first = system.answer("Who is the mayor of Berlin?")
        second = system.answer("Who is the mayor of Berlin?")
        assert first.trace is not None
        assert second.trace is None

    def test_untraced_system_attaches_no_trace(self, kb):
        system = QuestionAnsweringSystem.over(kb, PipelineConfig())
        answer = system.answer("Who is the mayor of Berlin?")
        assert answer.trace is None
        assert system.tracer is NULL_TRACER

    def test_batch_builds_one_tree_per_question(self, traced_qa):
        """Three serving workers answer at once; each answer carries its
        own question's closed tree (the open-span stack is per thread)."""
        from repro.serve import ResilientServer, ServerConfig

        questions = [
            "Who wrote The Pillars of the Earth?",
            "Who is the mayor of Berlin?",
            "Which book is written by Orhan Pamuk?",
        ]
        server = ResilientServer(traced_qa, ServerConfig(workers=3))
        try:
            futures = [server.submit(question) for question in questions]
            results = [future.result(timeout=60) for future in futures]
        finally:
            server.stop()
        for question, result in zip(questions, results):
            assert result.trace is not None
            assert result.trace.attributes["question"] == question
            for span in result.trace.walk():
                assert span.closed

    def test_render_tree_mentions_every_stage(self, traced_qa):
        trace = traced_qa.answer("Which book is written by Orhan Pamuk?").trace
        text = render_span_tree(trace)
        for stage in PIPELINE_ORDER:
            assert f"- {stage} (" in text
