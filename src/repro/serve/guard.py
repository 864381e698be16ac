"""The stage guard: the serving layer's grip on the pipeline.

The pipeline exposes exactly one integration point
(``PipelineConfig.stage_guard``): an object with ``enter(stage)`` /
``exit(stage, failed)`` hooks called at the annotate/map/execute stage
boundaries.  :class:`StageGuard` implements it with one
:class:`~repro.serve.breaker.CircuitBreaker` per stage — failure-rate
fail-fast.  It limits no concurrency: admission (the server's bounded
queue, its shed policy and request deadlines) is the serving layer's one
limiter.

``enter`` consults the breaker and raises the typed
:class:`~repro.reliability.CircuitOpenError` when it is open.  Rejections
raised by ``enter`` never see a matching ``exit`` call — the pipeline only
calls ``exit`` for stages it actually entered — so a rejection never
counts as a fresh breaker failure.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.obs.metrics import MetricsRegistry
from repro.reliability.errors import CircuitOpenError
from repro.serve.breaker import CircuitBreaker

#: The stage boundaries the pipeline exposes to the guard.  Extract and
#: generate run in-process between annotate and execute and are cheap; the
#: three guarded stages are where external work (parsing, vocabulary scans,
#: SPARQL execution) concentrates.
GUARDED_STAGES: tuple[str, ...] = ("annotate", "map", "execute")


class StageGuard:
    """Per-stage circuit breakers behind the pipeline's guard hooks."""

    def __init__(
        self,
        breakers: dict[str, CircuitBreaker] | None = None,
        stats: MetricsRegistry | None = None,
    ) -> None:
        self._breakers = breakers if breakers is not None else {}
        self._stats = stats

    @classmethod
    def default(
        cls,
        failure_threshold: int = 5,
        recovery_s: float = 5.0,
        stats: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> "StageGuard":
        """A guard with one breaker per stage in :data:`GUARDED_STAGES`."""
        breakers = {
            stage: CircuitBreaker(
                stage,
                failure_threshold=failure_threshold,
                recovery_s=recovery_s,
                clock=clock,
            )
            for stage in GUARDED_STAGES
        }
        return cls(breakers=breakers, stats=stats)

    # -- the pipeline-facing hook protocol ------------------------------

    def enter(self, stage: str) -> None:
        """Gate entry to a stage; raises the typed rejection on refusal."""
        breaker = self._breakers.get(stage)
        if breaker is not None and not breaker.allow():
            self._count(f"breaker.{stage}.rejected")
            raise CircuitOpenError(stage, "circuit breaker open")

    def exit(self, stage: str, failed: bool) -> None:
        """Record the stage outcome on its breaker."""
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

    # -- management -----------------------------------------------------

    def breaker(self, stage: str) -> CircuitBreaker | None:
        return self._breakers.get(stage)

    def reset(self) -> None:
        """Force-close every breaker (soak-harness phase boundaries)."""
        for breaker in self._breakers.values():
            breaker.reset()

    def snapshot(self) -> dict[str, dict[str, int]]:
        """Bounded metric families: one ``breaker.<stage>`` entry per
        *stage* — never per request."""
        return {
            f"breaker.{stage}": breaker.snapshot()
            for stage, breaker in self._breakers.items()
        }

    def _count(self, name: str) -> None:
        if self._stats is not None:
            self._stats.inc(name)
