"""MemoizedSimilarity: agreement with the wrapped function and counters."""

import itertools

from repro.obs.metrics import MetricsRegistry
from repro.similarity.cache import MemoizedSimilarity, memoize_similarity
from repro.similarity.lcs import subsequence_similarity

WORDS = ["written", "writer", "author", "mayor", "height", "die", "born", ""]


class TestAgreement:
    def test_matches_wrapped_function_on_all_pairs(self):
        cached = MemoizedSimilarity(subsequence_similarity)
        for a, b in itertools.product(WORDS, repeat=2):
            expected = subsequence_similarity(a, b)
            assert cached(a, b) == expected, (a, b)
            assert cached(a, b) == expected, (a, b)  # cached replay too

    def test_zero_scores_are_cached(self):
        """0.0 is falsy; the memo must distinguish it from a miss."""
        calls = []

        def zero(a, b):
            calls.append((a, b))
            return 0.0

        cached = MemoizedSimilarity(zero)
        assert cached("a", "b") == 0.0
        assert cached("a", "b") == 0.0
        assert calls == [("a", "b")]

    def test_argument_order_is_part_of_the_key(self):
        def asym(a, b):
            return float(len(a)) / max(len(b), 1)

        cached = MemoizedSimilarity(asym)
        assert cached("ab", "wxyz") != cached("wxyz", "ab")


class TestCounters:
    def test_hit_and_miss_counters(self):
        stats = MetricsRegistry()
        cached = MemoizedSimilarity(
            subsequence_similarity, stats=stats, name="similarity"
        )
        cached("written", "writer")
        cached("written", "writer")
        cached("written", "author")
        assert stats.counter("similarity.memo.hits") == 1
        assert stats.counter("similarity.memo.misses") == 2
        assert cached.cache.hits == 1
        assert cached.cache.misses == 2


class TestMemoizeHelper:
    def test_idempotent(self):
        once = memoize_similarity(subsequence_similarity)
        twice = memoize_similarity(once)
        assert twice is once

    def test_exposes_wrapped(self):
        cached = memoize_similarity(subsequence_similarity)
        assert cached.__wrapped__ is subsequence_similarity
