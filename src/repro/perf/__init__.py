"""Performance infrastructure: caches and batch execution.

This package backs the throughput-oriented answering layer:

* :mod:`repro.perf.lru` — thread-safe LRU cache (SPARQL parse/result
  caches, similarity memo);
* :mod:`repro.perf.batch` — :class:`BatchAnswerer`, the thread-pool
  fan-out behind ``QuestionAnsweringSystem.answer_many``.

Stage timers and counters live in :class:`repro.obs.MetricsRegistry`.
"""

from repro.perf.batch import BatchAnswerer, default_workers
from repro.perf.lru import LRUCache

__all__ = [
    "BatchAnswerer",
    "LRUCache",
    "default_workers",
]
