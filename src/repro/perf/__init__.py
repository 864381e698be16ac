"""Performance infrastructure: :class:`~repro.perf.lru.LRUCache`, the
bounded, thread-safe cache behind the engine's result cache, the
annotation cache and the mapper's similarity and scan memos.

Stage timers and counters live in :class:`repro.obs.MetricsRegistry`.
"""

from repro.perf.lru import LRUCache

__all__ = ["LRUCache"]
