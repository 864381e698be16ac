"""The <2% overhead guard for the disabled (no-op) tracer.

A/B wall-clock comparison of two full pipeline runs is hopelessly noisy at
the <2% level on shared CI hardware, so the guard is a *derivation*
instead, from two stable measurements:

1. the per-operation cost of the disabled instrumentation primitives
   (measured over many iterations, so timer noise averages out), and
2. the median per-question pipeline latency over the QALD question sets,
   on a fresh system.

The two are timed in alternation — one question, then a slice of the
primitive iterations — so both see the same host state (frequency,
cache and scheduler noise); timed one after the other they drifted
apart and the guard failed about one run in four.  Both sides are
CPU-bound Python, so their ratio is machine-speed independent to first
order.  With tracing disabled a question crosses a bounded set of
instrumentation points:

* one ``begin_trace`` call on the null tracer;
* one ``traced`` boolean check per stage boundary (the stage spans are
  never opened — see ``QuestionAnsweringSystem._answer_guarded``);
* one ``tracer.active`` / ``engine._tracers`` guard read per event site —
  a handful in the mapper and query generator, and a few per *executed*
  candidate in the executor and engine caches.

The guard asserts   2 calls + 64 guard reads  <  2% x median latency,
and a counting stub checks those two ceilings against what each QALD
question actually does (most questions read no guard at all; the
busiest reads 35).  Answers themselves are checked byte-identical
separately (``test_disabled_tracing_identical_answers``).
"""

import statistics
import time

from repro.api import PipelineConfig, QuestionAnsweringSystem
from repro.core import system as system_module
from repro.obs import NULL_TRACER
from repro.obs.trace import NullTracer
from repro.qald import load_dev_questions, load_questions

#: Generous per-question ceilings for the disabled-path primitives.
NOOP_CALLS_PER_QUESTION = 2
GUARD_READS_PER_QUESTION = 64

#: Primitive iterations timed after each question (120 questions, so
#: 120,000 iterations of each primitive in all).
ITERATIONS_PER_QUESTION = 1_000

SPOT_QUESTIONS = [
    "Which book is written by Orhan Pamuk?",
    "Who is the mayor of Berlin?",
    "Who wrote The Pillars of the Earth?",
    "How tall is Michael Jordan?",
]


def _all_questions() -> list[str]:
    return [q.text for q in load_questions() + load_dev_questions()]


def _interleaved_costs(system, questions) -> tuple[float, float, float]:
    """(median question seconds, mean seconds per no-op method call,
    mean seconds per guard attribute read), each question followed by a
    slice of both primitive loops."""
    tracer = NULL_TRACER
    latencies = []
    call_total = guard_total = 0.0
    for question in questions:
        start = time.perf_counter()
        system.answer(question)
        latencies.append(time.perf_counter() - start)
        start = time.perf_counter()
        for _ in range(ITERATIONS_PER_QUESTION):
            tracer.event("x")
        call_total += time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(ITERATIONS_PER_QUESTION):
            if tracer.active:
                raise AssertionError  # pragma: no cover
        guard_total += time.perf_counter() - start
    iterations = ITERATIONS_PER_QUESTION * len(questions)
    return (
        statistics.median(latencies),
        call_total / iterations,
        guard_total / iterations,
    )


class _CountingTracer(NullTracer):
    """The null tracer, counting every guard read and no-op call."""

    def __init__(self) -> None:
        self.guard_reads = 0
        self.calls = 0

    @property
    def active(self) -> bool:
        self.guard_reads += 1
        return False

    def _call(self, *args, **kwargs) -> None:
        self.calls += 1

    begin_trace = end_trace = open_span = close_span = event = annotate = _call


class _CountingNoTracers:
    """Stands in for the engine's empty ``_tracers`` tuple and counts
    its truthiness checks as guard reads."""

    def __init__(self, counter: _CountingTracer) -> None:
        self._counter = counter

    def __bool__(self) -> bool:
        self._counter.guard_reads += 1
        return False

    def __iter__(self):
        return iter(())


class TestOverheadGuard:
    def test_noop_touches_stay_under_two_percent_of_median(self, kb):
        system = QuestionAnsweringSystem.over(kb, PipelineConfig())
        median, call, guard = _interleaved_costs(system, _all_questions())
        spent = (
            NOOP_CALLS_PER_QUESTION * call
            + GUARD_READS_PER_QUESTION * guard
        )
        budget = 0.02 * median
        assert spent < budget, (
            f"disabled tracer: {NOOP_CALLS_PER_QUESTION} calls + "
            f"{GUARD_READS_PER_QUESTION} guard reads cost "
            f"{spent * 1e6:.2f}us, over 2% of the {median * 1e3:.3f}ms "
            f"median question ({budget * 1e6:.2f}us)"
        )

    def test_questions_stay_within_the_counted_ceilings(self, kb, monkeypatch):
        counter = _CountingTracer()
        monkeypatch.setattr(system_module, "NULL_TRACER", counter)
        monkeypatch.setattr(kb.engine, "_tracers", _CountingNoTracers(counter))
        system = QuestionAnsweringSystem.over(kb, PipelineConfig())
        assert system.tracer is counter
        reads, calls = [], []
        for question in _all_questions():
            before = (counter.guard_reads, counter.calls)
            system.answer(question)
            reads.append(counter.guard_reads - before[0])
            calls.append(counter.calls - before[1])
        assert max(reads) > 0  # the stub does see the guard sites
        assert statistics.median(reads) <= GUARD_READS_PER_QUESTION
        assert max(reads) <= GUARD_READS_PER_QUESTION, reads
        assert max(calls) <= NOOP_CALLS_PER_QUESTION, calls

    def test_disabled_tracing_identical_answers(self, kb):
        """With tracing off the pipeline's outputs are byte-identical."""
        plain = QuestionAnsweringSystem.over(kb, PipelineConfig())
        traced = QuestionAnsweringSystem.over(
            kb, PipelineConfig().with_tracing()
        )
        for question in SPOT_QUESTIONS:
            a = plain.answer(question)
            b = traced.answer(question)
            assert [str(t) for t in a.answers] == [str(t) for t in b.answers]
            assert (a.query is None) == (b.query is None)
            if a.query is not None:
                assert a.query.to_sparql() == b.query.to_sparql()
            assert str(a.explanation()) == str(b.explanation())

    def test_null_tracer_allocates_no_spans(self):
        """The disabled paths yield None — no Span objects are built."""
        with NULL_TRACER.span("annotate") as span:
            assert span is None
        assert NULL_TRACER.begin_trace("answer") is None
        assert NULL_TRACER.open_span("annotate") is None
