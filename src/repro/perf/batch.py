"""Batch answering: fan questions out over a thread pool.

The pipeline is read-only over its shared resources once constructed — the
graph indexes, pattern store, WordNet maps and surface index are never
mutated by :meth:`~repro.core.system.QuestionAnsweringSystem.answer` — so
questions can run concurrently against one system instance.  The only
shared *mutable* state is the cache/metrics layer, and every one of those
structures (:class:`repro.perf.lru.LRUCache`,
:class:`repro.obs.metrics.MetricsRegistry`, the similarity memo) takes its
own lock.  ``docs/performance.md`` spells out the full thread-safety contract.

Results are returned in input order and are exactly what sequential
``answer()`` calls would have produced: each question is answered by the
same deterministic pipeline, and no stage's outcome depends on which thread
ran it or on cache warmth (caches change *when* work happens, never its
result).

**Observability** (docs/observability.md): the tracer's open-span stack is
thread-local, so a traced batch builds one independent span tree per
question on whichever worker thread answered it — ``Answer.trace`` carries
it — and the shared caches' hit/miss events land on the right question's
spans.  Only the cache-delta sub-spans of the map stage are approximate
under concurrency (counters are shared).

**Batch isolation** (docs/reliability.md): one poisoned question can never
kill the batch.  ``answer()`` itself never raises (the reliability layer
converts stage failures into typed ``Answer.failure`` diagnostics), and as
a last line of defence every per-question call here is guarded — an escape
is converted into a failed ``Answer`` for that question only, counted under
``batch.failures``, while every other question completes normally.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import Answer, QuestionAnsweringSystem


def default_workers() -> int:
    """Pool width: one thread per core, capped to keep contention sane."""
    return min(8, os.cpu_count() or 1)


class BatchAnswerer:
    """Answers many questions concurrently over one shared system.

    The system's knowledge base must not be mutated while a batch is in
    flight (the same contract as any concurrent reader of
    :class:`repro.rdf.Graph`).
    """

    def __init__(
        self,
        system: "QuestionAnsweringSystem",
        max_workers: int | None = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self._system = system
        self._max_workers = max_workers if max_workers is not None else default_workers()

    @property
    def max_workers(self) -> int:
        return self._max_workers

    def answer_many(self, questions: Sequence[str] | Iterable[str]) -> "list[Answer]":
        """Answer every question; results align with the input order."""
        questions = list(questions)
        if not questions:
            return []
        stats = self._system.stats
        stats.inc("batch.questions", len(questions))
        if len(questions) == 1 or self._max_workers == 1:
            return [self._answer_isolated(question) for question in questions]
        with stats.timer("batch.wall"):
            with ThreadPoolExecutor(
                max_workers=min(self._max_workers, len(questions)),
                thread_name_prefix="repro-batch",
            ) as pool:
                return list(pool.map(self._answer_isolated, questions))

    def _answer_isolated(self, question: str) -> "Answer":
        """One question, contained: an escaping exception fails only it.

        The failure is routed through the typed taxonomy
        (:class:`repro.reliability.errors.InternalError`), so a batch
        failure carries the same ``failure``/``failure_stage`` contract as
        a single-question failure.
        """
        try:
            return self._system.answer(question)
        except Exception as error:
            from repro.core.system import Answer
            from repro.reliability.errors import InternalError

            self._system.stats.inc("batch.failures")
            typed = InternalError.from_exception(error)
            return Answer(
                question=question,
                failure=typed.describe(),
                failure_stage=typed.stage_value,
            )
