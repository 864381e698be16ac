"""Per-stage timing counters for the answering pipeline.

Every :class:`repro.core.system.QuestionAnsweringSystem` owns a
:class:`PerfStats`; the pipeline stages (annotate / extract / map /
generate / execute) record wall time and call counts into it, and the
caches (SPARQL result cache, similarity memo) publish their hit/miss
counters through :meth:`PerfStats.snapshot`.  The batch benchmark folds the
snapshot (via ``QuestionAnsweringSystem.metrics()``) into its BENCH JSON
artifact, and ``docs/performance.md`` documents how to read it.

All mutation happens under one lock so worker threads of
:class:`repro.perf.batch.BatchAnswerer` can share a single instance.

This is the low-level accumulator, not the reporting surface: the unified
``repro.metrics/v1`` schema of :class:`repro.obs.metrics.MetricsRegistry`
absorbs every snapshot here (timers become ``stage.<name>.seconds``
histograms, counters keep their names) via
``QuestionAnsweringSystem.metrics()``.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator


class StageTimer:
    """Accumulated wall time and call count for one pipeline stage."""

    __slots__ = ("calls", "total_seconds")

    def __init__(self) -> None:
        self.calls = 0
        self.total_seconds = 0.0

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.calls if self.calls else 0.0

    def as_dict(self) -> dict[str, float | int]:
        return {
            "calls": self.calls,
            "total_seconds": round(self.total_seconds, 6),
            "mean_seconds": round(self.mean_seconds, 6),
        }


class PerfStats:
    """Thread-safe registry of stage timers and named counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._timers: dict[str, StageTimer] = {}
        self._counters: dict[str, int] = {}

    # -- timers ----------------------------------------------------------

    @contextmanager
    def timer(self, stage: str) -> Iterator[None]:
        """Time a ``with`` block under the given stage name.

        >>> stats = PerfStats()
        >>> with stats.timer("annotate"):
        ...     pass
        >>> stats.snapshot()["timers"]["annotate"]["calls"]
        1
        """
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(stage, time.perf_counter() - start)

    def record(self, stage: str, seconds: float) -> None:
        """Add one observation to a stage timer."""
        with self._lock:
            timer = self._timers.get(stage)
            if timer is None:
                timer = self._timers[stage] = StageTimer()
            timer.calls += 1
            timer.total_seconds += seconds

    # -- counters --------------------------------------------------------

    def increment(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    # -- reporting -------------------------------------------------------

    def snapshot(self) -> dict:
        """Immutable copy of every timer and counter."""
        with self._lock:
            return {
                "timers": {
                    name: timer.as_dict()
                    for name, timer in sorted(self._timers.items())
                },
                "counters": dict(sorted(self._counters.items())),
            }

    def merge(self, other: "PerfStats") -> None:
        """Fold another instance's observations into this one."""
        data = other.snapshot()
        with self._lock:
            for name, entry in data["timers"].items():
                timer = self._timers.get(name)
                if timer is None:
                    timer = self._timers[name] = StageTimer()
                timer.calls += entry["calls"]
                timer.total_seconds += entry["total_seconds"]
            for name, value in data["counters"].items():
                self._counters[name] = self._counters.get(name, 0) + value

    def reset(self) -> None:
        with self._lock:
            self._timers.clear()
            self._counters.clear()

    def format_table(self) -> str:
        """Plain-text report (used by ``python -m repro`` verbose runs)."""
        data = self.snapshot()
        lines = ["stage                        calls    total(s)     mean(ms)"]
        for name, entry in data["timers"].items():
            lines.append(
                f"{name:<28}{entry['calls']:>6}{entry['total_seconds']:>12.4f}"
                f"{entry['mean_seconds'] * 1000:>12.3f}"
            )
        if data["counters"]:
            lines.append("counters:")
            for name, value in data["counters"].items():
                lines.append(f"  {name} = {value}")
        return "\n".join(lines)
