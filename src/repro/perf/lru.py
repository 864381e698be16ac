"""A small thread-safe LRU cache with hit/miss accounting.

Used by the SPARQL parse/result caches and the similarity memo layer.
``functools.lru_cache`` is not enough for those call sites: the caches must
be explicitly invalidatable (graph mutation bumps a generation counter),
sized at runtime, and must expose their hit/miss counters (:meth:`stats`,
folded into the metrics document as gauges by
:meth:`repro.obs.metrics.MetricsRegistry.absorb_cache_stats`) so
benchmarks can report cache efficiency.

Thread-safety contract: every public method takes the internal lock, so the
cache can be shared by the :class:`repro.perf.batch.BatchAnswerer` worker
threads.  Values are expected to be immutable (parsed ASTs, frozen result
tuples, floats) — the cache hands out the stored object itself, never a
copy.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable

#: Sentinel distinguishing "cached None" from "absent".
_MISSING = object()


class LRUCache:
    """Bounded mapping with least-recently-used eviction.

    >>> cache = LRUCache(maxsize=2)
    >>> cache.put("a", 1); cache.put("b", 2)
    >>> cache.get("a")
    1
    >>> cache.put("c", 3)      # evicts "b", the least recently used
    >>> cache.get("b") is None
    True
    >>> (cache.hits, cache.misses)
    (1, 1)
    """

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize < 0:
            raise ValueError(f"maxsize must be >= 0, got {maxsize}")
        self.maxsize = maxsize
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, refreshing its recency on a hit."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh ``key``; evicts the LRU entry when full."""
        if self.maxsize == 0:
            return
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._data.clear()

    def keys(self) -> list:
        """Snapshot of the keys, least-recently-used first (so replaying
        them through ``put`` reproduces the recency order)."""
        with self._lock:
            return list(self._data.keys())

    def items(self) -> list[tuple[Hashable, Any]]:
        """Snapshot of ``(key, value)`` pairs, least-recently-used first.

        The warm-state snapshot layer (``repro.serve.snapshot``) persists
        these; values are handed out unchanged (the immutability contract
        above), never copied.
        """
        with self._lock:
            return list(self._data.items())

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, int | float]:
        """Counter snapshot for perf reports."""
        return {
            "size": len(self),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }
