"""ResilientServer: admission, shedding, deadlines, hot reload, shutdown."""

import threading

import pytest

from repro.serve import Overloaded, ResilientServer, ServerConfig

QUESTION = "Which book is written by Orhan Pamuk?"


def test_serves_answers_and_metrics(qa):
    with ResilientServer(qa, ServerConfig(workers=2)) as server:
        answer = server.answer(QUESTION)
        assert answer.answered
        doc = server.metrics()
    assert doc["schema"] == "repro.metrics/v1"
    assert doc["counters"]["serve.submitted"] == 1
    assert doc["counters"]["serve.completed"] == 1
    assert doc["gauges"]["breaker.execute.state"] == 0  # closed
    # The pipeline's own families ride along in the same document.
    assert any(name.startswith("stage.") for name in doc["histograms"])


def test_concurrent_callers_all_resolve(qa):
    questions = [QUESTION, "How tall is Tom Cruise?", "Who directed Jaws?"] * 4
    with ResilientServer(qa, ServerConfig(workers=4)) as server:
        futures = [server.submit(text) for text in questions]
        answers = [future.result(timeout=30) for future in futures]
    assert len(answers) == len(questions)
    for text, answer in zip(questions, answers):
        assert answer.question == text
        assert answer.answered or answer.failure is not None


def test_full_queue_sheds_with_typed_overloaded_failure(qa):
    # Wedge the single worker, fill the queue of 1: the next submit must
    # shed synchronously with the typed serving failure.
    entered, release = threading.Event(), threading.Event()
    config = ServerConfig(max_queue=1, workers=1, shed_policy="reject")
    server = ResilientServer(qa, config)
    original = server._serve_one

    def stalling(request, _original=original):
        entered.set()
        release.wait(timeout=30)
        _original(request)

    server._serve_one = stalling
    try:
        blocker = server.submit(QUESTION)
        assert entered.wait(timeout=30)   # worker is wedged, queue empty
        first = server.submit(QUESTION)   # fills the queue
        shed = server.submit(QUESTION)    # over the bound: shed now
        assert shed.done()
        answer = shed.result()
        assert not answer.answered
        assert answer.failure_stage == "serve"
        assert "Overloaded" in answer.failure
    finally:
        release.set()
        server.stop()
    assert first.result(timeout=30) is not None
    assert blocker.result(timeout=30) is not None


def test_degrade_policy_routes_overflow_to_tight_budget_lane(qa):
    entered, release = threading.Event(), threading.Event()
    config = ServerConfig(
        max_queue=1, workers=1, shed_policy="degrade",
        degraded_workers=1, degraded_timeout_s=30.0,
    )
    server = ResilientServer(qa, config)
    original = server._serve_one

    def stalling(request, _original=original):
        if not request.degraded:
            entered.set()
            release.wait(timeout=30)
        _original(request)

    server._serve_one = stalling
    try:
        server.submit(QUESTION)             # wedges the primary worker
        assert entered.wait(timeout=30)
        server.submit(QUESTION)             # fills the primary queue
        overflow = server.submit(QUESTION)  # re-routed to the degraded lane
        answer = overflow.result(timeout=30)
        assert "serve:degraded-admission" in answer.degraded
    finally:
        release.set()
        server.stop()


def test_expired_deadline_is_shed_at_dequeue(qa):
    with ResilientServer(qa, ServerConfig(workers=1)) as server:
        answer = server.answer(QUESTION, timeout_s=0.0)
    assert not answer.answered
    assert answer.failure_stage == "serve"
    assert "deadline expired while queued" in answer.failure
    assert server.metrics()["counters"]["serve.expired_in_queue"] == 1


def test_submit_after_stop_resolves_with_server_closed(qa):
    server = ResilientServer(qa, ServerConfig(workers=1))
    server.stop()
    answer = server.submit(QUESTION).result()
    assert not answer.answered
    assert answer.failure_stage == "serve"
    assert "ServerClosed" in answer.failure


def test_stop_resolves_requests_still_queued(qa):
    entered, release = threading.Event(), threading.Event()
    server = ResilientServer(qa, ServerConfig(max_queue=4, workers=1))
    original = server._serve_one

    def stalling(request, _original=original):
        entered.set()
        release.wait(timeout=30)
        _original(request)

    server._serve_one = stalling
    running = server.submit(QUESTION)
    assert entered.wait(timeout=30)
    queued = [server.submit(QUESTION) for _ in range(3)]
    stopper = threading.Thread(target=server.stop)
    stopper.start()
    release.set()
    stopper.join(timeout=30)
    assert running.result(timeout=30) is not None
    for future in queued:
        answer = future.result(timeout=30)
        # Either the worker got to it before the sentinel, or stop()
        # resolved it with the typed closure failure — never stranded.
        assert answer.answered or answer.failure is not None


def test_hot_reload_swaps_system_under_live_requests(qa, kb):
    from repro.api import QuestionAnsweringSystem

    twin = QuestionAnsweringSystem.over(kb)
    with ResilientServer(qa, ServerConfig(workers=2)) as server:
        before = server.answer(QUESTION)
        server.hot_reload(twin)
        assert server.system is twin
        # The guard moved with the reload.
        assert twin.config.stage_guard is server.guard
        after = server.answer(QUESTION)
    assert [t.n3() for t in after.answers] == [t.n3() for t in before.answers]
    assert server.metrics()["counters"]["serve.reloads"] == 1


TALL = "How tall is Tom Cruise?"


def tripping_server(kb):
    """A server whose execute breaker opens on one injected execute error
    and stays open for a minute, and the system it serves."""
    from repro.api import PipelineConfig, QuestionAnsweringSystem
    from repro.reliability import FaultInjector, FaultSpec

    faults = FaultInjector([FaultSpec("execute", "error", times=1)])
    system = QuestionAnsweringSystem.over(
        kb, PipelineConfig().with_fault_injector(faults)
    )
    config = ServerConfig(
        workers=1, breaker_failure_threshold=1, breaker_recovery_s=60
    )
    server = ResilientServer(system, config)
    assert server.answer(TALL).failure_stage == "execute"
    return server, system


def test_stop_removes_the_guard_from_the_served_system(kb):
    server, system = tripping_server(kb)
    server.stop()
    assert system.config.stage_guard is None
    answer = system.answer(TALL)
    assert answer.answered, answer.failure


def test_hot_reload_removes_the_guard_from_the_replaced_system(kb):
    from repro.api import QuestionAnsweringSystem
    from repro.serve.guard import StageGuard

    server, system = tripping_server(kb)
    twin = QuestionAnsweringSystem.over(kb)
    with server:
        server.hot_reload(twin)
        assert system.config.stage_guard is None
        answer = system.answer(TALL)
        assert answer.answered, answer.failure
        # Reloading the serving system keeps its guard; a guard another
        # owner installed on the replaced system stays.
        server.hot_reload(twin)
        assert twin.config.stage_guard is server.guard
        foreign = StageGuard.default()
        twin.install_stage_guard(foreign)
        server.hot_reload(system)
        assert twin.config.stage_guard is foreign


def test_segmented_server_answers_like_a_cold_system(kb, tmp_path):
    """A server over a segment directory answers every dev question
    exactly like a cold system over the same directory, before and after
    a hot reload and a warm-snapshot restore."""
    from repro.api import QuestionAnsweringSystem, load_kb
    from repro.kb import build_segments
    from repro.qald.devset import load_dev_questions
    from repro.serve.soak import answer_signature

    segments = tmp_path / "segments"
    build_segments(kb.graph, segments)
    questions = [question.text for question in load_dev_questions()]
    cold = QuestionAnsweringSystem.over(load_kb(segments))
    expected = [answer_signature(cold.answer(text)) for text in questions]

    def served(server):
        return [answer_signature(server.answer(text)) for text in questions]

    system = QuestionAnsweringSystem.over(load_kb(segments))
    with ResilientServer(system, ServerConfig(workers=2)) as server:
        assert served(server) == expected
        snapshot = tmp_path / "warm.snapshot"
        server.save_snapshot(snapshot)
        server.hot_reload(QuestionAnsweringSystem.over(load_kb(segments)))
        assert served(server) == expected
        assert server.restore_snapshot(snapshot)["results"] > 0
        assert served(server) == expected


@pytest.mark.parametrize("count", [5, 20])
def test_slow_execute_refuses_no_question(kb, count):
    """Admission is the one limiter: when every worker sits in a slow
    execute stage at once, no question is refused there.  The whole batch
    is submitted before any answer is awaited, so the default server's
    workers all reach execute together, each candidate 200 ms late."""
    from repro.api import PipelineConfig, QuestionAnsweringSystem
    from repro.qald.devset import load_dev_questions
    from repro.reliability import FaultInjector, FaultSpec
    from repro.serve.soak import answer_signature

    questions = [question.text for question in load_dev_questions()][:count]
    clean = QuestionAnsweringSystem.over(kb)
    expected = [answer_signature(clean.answer(text)) for text in questions]

    faults = FaultInjector([FaultSpec("execute", "slow", delay_ms=200.0)])
    slow = QuestionAnsweringSystem.over(
        kb, PipelineConfig().with_fault_injector(faults)
    )
    with ResilientServer(slow, ServerConfig()) as server:
        futures = [server.submit(text) for text in questions]
        answers = [future.result(timeout=60) for future in futures]

    assert faults.fired("execute", "slow") > 0
    assert [answer.failure_stage for answer in answers].count("execute") == 0
    assert [answer_signature(answer) for answer in answers] == expected
    if count == 5:
        assert all(answer.answered for answer in answers)


def test_shed_policy_is_validated():
    with pytest.raises(ValueError, match="shed_policy"):
        ServerConfig(shed_policy="panic")


def test_degraded_lane_without_workers_is_rejected():
    # Requests shed onto a lane with no worker would never be served.
    with pytest.raises(ValueError, match="degraded_workers"):
        ServerConfig(shed_policy="degrade", degraded_workers=0)


def test_unbounded_degraded_queue_is_rejected():
    # ``queue.Queue(0)`` is unbounded: the lane would shed nothing.
    with pytest.raises(ValueError, match="max_degraded_queue"):
        ServerConfig(shed_policy="degrade", max_degraded_queue=0)


def test_overloaded_describe_shape():
    assert Overloaded("queue full").describe() == (
        "Overloaded at stage 'serve': queue full"
    )
