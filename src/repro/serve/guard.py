"""Bulkheads and the stage guard: the serving layer's grip on the pipeline.

The pipeline exposes exactly one integration point
(``PipelineConfig.stage_guard``): an object with ``enter(stage)`` /
``exit(stage, failed)`` hooks called at the annotate/map/execute stage
boundaries.  :class:`StageGuard` implements it by composing, per stage,

* a :class:`Bulkhead` — a plain semaphore capping how many worker threads
  may be *inside* the stage at once, so a slow SPARQL backend (execute)
  cannot absorb every worker and starve the NLP-only stages; and
* a :class:`~repro.serve.breaker.CircuitBreaker` — failure-rate fail-fast.

``enter`` acquires the bulkhead first, then consults the breaker (and
releases the bulkhead again if the breaker rejects), raising the typed
:class:`~repro.reliability.BulkheadSaturatedError` /
:class:`~repro.reliability.CircuitOpenError`.  Rejections raised by
``enter`` never see a matching ``exit`` call — the pipeline only calls
``exit`` for stages it actually entered — so a rejection neither releases
an unacquired slot nor counts as a fresh breaker failure.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.obs.metrics import MetricsRegistry
from repro.reliability.errors import BulkheadSaturatedError, CircuitOpenError
from repro.serve.breaker import CircuitBreaker

#: The stage boundaries the pipeline exposes to the guard.  Extract and
#: generate run in-process between annotate and execute and are cheap; the
#: three guarded stages are where external work (parsing, vocabulary scans,
#: SPARQL execution) concentrates.
GUARDED_STAGES: tuple[str, ...] = ("annotate", "map", "execute")


class Bulkhead:
    """A per-stage concurrency limit that never waits.

    Saturation sheds instantly: the serving layer prefers a fast typed
    rejection over queueing inside the pipeline, because queueing is the
    admission queue's job.
    """

    def __init__(self, name: str, max_concurrent: int) -> None:
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        self.name = name
        self.max_concurrent = max_concurrent
        self._semaphore = threading.BoundedSemaphore(max_concurrent)
        self._lock = threading.Lock()
        self._in_flight = 0
        self.rejected_count = 0

    def acquire(self) -> bool:
        acquired = self._semaphore.acquire(blocking=False)
        with self._lock:
            if acquired:
                self._in_flight += 1
            else:
                self.rejected_count += 1
        return acquired

    def release(self) -> None:
        with self._lock:
            self._in_flight -= 1
        self._semaphore.release()

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                "limit": self.max_concurrent,
                "in_flight": self._in_flight,
                "rejected": self.rejected_count,
            }


class StageGuard:
    """Per-stage breakers + bulkheads behind the pipeline's guard hooks."""

    def __init__(
        self,
        breakers: dict[str, CircuitBreaker] | None = None,
        bulkheads: dict[str, Bulkhead] | None = None,
        stats: MetricsRegistry | None = None,
    ) -> None:
        self._breakers = breakers if breakers is not None else {}
        self._bulkheads = bulkheads if bulkheads is not None else {}
        self._stats = stats

    @classmethod
    def default(
        cls,
        failure_threshold: int = 5,
        recovery_s: float = 5.0,
        concurrency: dict[str, int] | None = None,
        stats: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> "StageGuard":
        """A guard over every stage in :data:`GUARDED_STAGES`.

        ``concurrency`` maps stage name -> bulkhead size (stages absent
        from the mapping get no bulkhead, only a breaker).
        """
        concurrency = concurrency if concurrency is not None else {}
        breakers = {
            stage: CircuitBreaker(
                stage,
                failure_threshold=failure_threshold,
                recovery_s=recovery_s,
                clock=clock,
            )
            for stage in GUARDED_STAGES
        }
        bulkheads = {
            stage: Bulkhead(stage, limit)
            for stage, limit in concurrency.items()
            if limit is not None
        }
        return cls(breakers=breakers, bulkheads=bulkheads, stats=stats)

    # -- the pipeline-facing hook protocol ------------------------------

    def enter(self, stage: str) -> None:
        """Gate entry to a stage; raises the typed rejection on refusal."""
        bulkhead = self._bulkheads.get(stage)
        if bulkhead is not None and not bulkhead.acquire():
            self._count(f"bulkhead.{stage}.rejected")
            raise BulkheadSaturatedError(
                stage,
                f"{bulkhead.in_flight}/{bulkhead.max_concurrent} slots busy",
            )
        breaker = self._breakers.get(stage)
        if breaker is not None and not breaker.allow():
            if bulkhead is not None:
                bulkhead.release()
            self._count(f"breaker.{stage}.rejected")
            raise CircuitOpenError(stage, "circuit breaker open")

    def exit(self, stage: str, failed: bool) -> None:
        """Record the stage outcome and release the bulkhead slot."""
        breaker = self._breakers.get(stage)
        if breaker is not None:
            before = breaker.state
            if failed:
                breaker.record_failure()
                self._count(f"breaker.{stage}.failures")
                if breaker.state != before and breaker.state == "open":
                    self._count(f"breaker.{stage}.opened")
            else:
                breaker.record_success()
                if before == "half_open" and breaker.state == "closed":
                    self._count(f"breaker.{stage}.closed")
        bulkhead = self._bulkheads.get(stage)
        if bulkhead is not None:
            bulkhead.release()

    # -- management -----------------------------------------------------

    def breaker(self, stage: str) -> CircuitBreaker | None:
        return self._breakers.get(stage)

    def reset(self) -> None:
        """Force-close every breaker (soak-harness phase boundaries)."""
        for breaker in self._breakers.values():
            breaker.reset()

    def snapshot(self) -> dict[str, dict[str, int]]:
        """Bounded metric families: one ``breaker.<stage>`` and
        ``bulkhead.<stage>`` entry per *stage* — never per request."""
        doc: dict[str, dict[str, int]] = {}
        for stage, breaker in self._breakers.items():
            doc[f"breaker.{stage}"] = breaker.snapshot()
        for stage, bulkhead in self._bulkheads.items():
            doc[f"bulkhead.{stage}"] = bulkhead.snapshot()
        return doc

    def _count(self, name: str) -> None:
        if self._stats is not None:
            self._stats.inc(name)
