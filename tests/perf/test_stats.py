"""Unit tests for the perf primitive LRUCache (the metrics registry is
covered by tests/obs/test_metrics.py)."""

import threading

import pytest

from repro.perf import LRUCache


class TestLRUCache:
    def test_basic_roundtrip(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert cache.get("missing", "fallback") == "fallback"

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a"; "b" becomes LRU
        cache.put("c", 3)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.evictions == 1

    def test_hit_miss_counters(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        cache.get("nope")
        assert (cache.hits, cache.misses) == (2, 1)
        assert cache.stats()["hit_rate"] == pytest.approx(2 / 3, abs=1e-3)

    def test_zero_size_disables_storage(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_clear_preserves_counters(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert cache.get("a") is None
        assert cache.hits == 1

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)

    def test_concurrent_access_is_consistent(self):
        cache = LRUCache(128)

        def worker(offset):
            for i in range(200):
                key = (offset + i) % 64
                cache.put(key, key * 2)
                value = cache.get(key)
                assert value is None or value == key * 2

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(cache) <= 128

