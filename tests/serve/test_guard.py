"""StageGuard integration with the pipeline's guarded stage boundaries."""

import pytest

from repro.reliability import CircuitOpenError, FaultInjector, FaultSpec
from repro.api import PipelineConfig, QuestionAnsweringSystem
from repro.serve.breaker import OPEN
from repro.serve.guard import GUARDED_STAGES, StageGuard

QUESTION = "Which book is written by Orhan Pamuk?"


def test_guarded_stages_are_the_expensive_ones():
    assert GUARDED_STAGES == ("annotate", "map", "execute")


def test_enter_raises_typed_rejection_when_breaker_open():
    guard = StageGuard.default(failure_threshold=1, recovery_s=60.0)
    guard.breaker("execute").record_failure()
    with pytest.raises(CircuitOpenError) as info:
        guard.enter("execute")
    assert info.value.stage_value == "execute"


def test_execute_failures_trip_breaker_and_requests_fail_fast(kb):
    faults = FaultInjector()
    config = PipelineConfig().with_fault_injector(faults)
    qa = QuestionAnsweringSystem.over(kb, config)
    guard = StageGuard.default(failure_threshold=2, recovery_s=60.0)
    qa.install_stage_guard(guard)

    faults.arm(FaultSpec("execute", "error"))
    for _ in range(2):
        answer = qa.answer(QUESTION)
        assert not answer.answered
    assert guard.breaker("execute").state == OPEN

    faults.disarm()
    rejected = qa.answer(QUESTION)
    assert not rejected.answered
    assert rejected.failure_stage == "execute"
    assert "CircuitOpenError" in rejected.failure


def test_open_annotate_breaker_degrades_to_shallow_annotation(kb):
    qa = QuestionAnsweringSystem.over(kb)
    guard = StageGuard.default(failure_threshold=1, recovery_s=60.0)
    qa.install_stage_guard(guard)
    guard.breaker("annotate").record_failure()

    answer = qa.answer(QUESTION)
    # The rejection lands on the fallback ladder, not a hard failure.
    assert "annotate:shallow-annotation" in answer.degraded


def test_breaker_recovers_after_quiet_period(kb):
    clock = [0.0]
    faults = FaultInjector()
    config = PipelineConfig().with_fault_injector(faults)
    qa = QuestionAnsweringSystem.over(kb, config)
    guard = StageGuard.default(
        failure_threshold=1, recovery_s=5.0, clock=lambda: clock[0]
    )
    qa.install_stage_guard(guard)

    faults.arm(FaultSpec("execute", "error", times=64))
    qa.answer(QUESTION)
    faults.disarm()
    assert guard.breaker("execute").state == OPEN

    clock[0] = 6.0  # recovery elapsed: next request is the probe
    probe = qa.answer(QUESTION)
    assert probe.answered
    assert guard.breaker("execute").state == "closed"


def test_mapping_refusal_does_not_count_as_breaker_failure(kb):
    qa = QuestionAnsweringSystem.over(kb)
    guard = StageGuard.default(failure_threshold=1, recovery_s=60.0)
    qa.install_stage_guard(guard)
    # An unmappable question is the paper's healthy refusal, not a fault.
    answer = qa.answer("Is Frank Herbert still alive?")
    assert not answer.answered
    assert guard.breaker("map").state == "closed"


def test_guard_snapshot_keys_are_per_stage(kb):
    snapshot = StageGuard.default().snapshot()
    assert set(snapshot) == {
        "breaker.annotate", "breaker.map", "breaker.execute",
    }
