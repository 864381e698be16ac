"""Memoized string-similarity functions.

Property mapping (section 2.2) recomputes the same word-vs-property scores
for every question: the vocabulary side of each comparison is the fixed
ontology catalogue, and question words repeat heavily across a QALD run
("born", "write", "mayor", ...).  The LCS dynamic programme is O(|a|·|b|)
per pair, so memoizing (a, b) -> score across questions turns the mapping
stage into dictionary lookups after warm-up.

Similarity functions are pure (no graph dependence), so entries never go
stale; the cache is bounded only to keep memory predictable under
adversarial input streams.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry
from repro.perf.lru import LRUCache

_MISSING = object()

#: Word-pair scores are tiny (two strings + a float); a generous default
#: comfortably holds a full QALD run's distinct pairs.
DEFAULT_MEMO_SIZE = 65536


class MemoizedSimilarity:
    """A similarity function with a bounded, thread-safe (a, b) -> score memo.

    >>> from repro.similarity.lcs import subsequence_similarity
    >>> cached = MemoizedSimilarity(subsequence_similarity)
    >>> cached("written", "writer") == subsequence_similarity("written", "writer")
    True
    >>> cached("written", "writer") == subsequence_similarity("written", "writer")
    True
    >>> cached.cache.hits
    1
    """

    def __init__(
        self,
        fn,
        maxsize: int = DEFAULT_MEMO_SIZE,
        stats: MetricsRegistry | None = None,
        name: str = "similarity",
    ) -> None:
        self._fn = fn
        self.cache = LRUCache(maxsize)
        self._stats = stats
        self._name = name
        #: The wrapped function, for cached-vs-uncached agreement checks.
        self.__wrapped__ = fn

    def __call__(self, a: str, b: str) -> float:
        key = (a, b)
        score = self.cache.get(key, _MISSING)
        if score is not _MISSING:
            if self._stats is not None:
                self._stats.inc(f"{self._name}.memo.hits")
            return score
        score = self._fn(a, b)
        self.cache.put(key, score)
        if self._stats is not None:
            self._stats.inc(f"{self._name}.memo.misses")
        return score

    def snapshot(self) -> dict[str, int | float]:
        """Hit/miss counter snapshot (keys match ``LRUCache.stats()``).

        The observability layer diffs two snapshots around the mapping
        stage to attach a ``cache.similarity.memo`` sub-span per traced
        question (docs/observability.md).
        """
        return self.cache.stats()


def memoize_similarity(
    fn,
    maxsize: int = DEFAULT_MEMO_SIZE,
    stats: MetricsRegistry | None = None,
    name: str = "similarity",
) -> MemoizedSimilarity:
    """Wrap ``fn`` unless it is already memoized (idempotent)."""
    if isinstance(fn, MemoizedSimilarity):
        return fn
    return MemoizedSimilarity(fn, maxsize=maxsize, stats=stats, name=name)
