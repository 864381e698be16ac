"""Greatest (longest) common subsequence scoring.

Section 2.2.1 of the paper:

    "The score is calculated by the length of greatest common subsequence
    over the length of the word.  For instance, the property 'taxiDriver'
    encapsulates the word 'river'.  With this scoring scheme, we eliminate
    these kinds of miscalculations."

A plain substring test would let ``river`` match ``taxiDriver`` perfectly.
The subsequence score still gives some credit (``river`` *is* a subsequence
of ``taxiDriver``), so the paper's guard comes from normalising by *both*
sides: we expose :func:`lcs_score` (the paper's one-sided score) and
:func:`subsequence_similarity`, the symmetric variant used by the pipeline,
which divides by the length of the longer string so that a short word buried
inside a long property name is penalised.
"""

from __future__ import annotations

from typing import Iterable


def _normalize(text: str) -> str:
    """Lower-case and strip camelCase boundaries for fair comparison."""
    return text.strip().lower()


def lcs_length(a: str, b: str) -> int:
    """Return the length of the longest common subsequence of ``a`` and ``b``.

    Classic dynamic programme over a rolling row, O(len(a) * len(b)) time and
    O(min(len(a), len(b))) space.

    >>> lcs_length("river", "taxidriver")
    5
    >>> lcs_length("written", "writer")
    5
    """
    if not a or not b:
        return 0
    if len(b) < len(a):
        a, b = b, a
    previous = [0] * (len(a) + 1)
    for ch_b in b:
        current = [0]
        for i, ch_a in enumerate(a, start=1):
            if ch_a == ch_b:
                current.append(previous[i - 1] + 1)
            else:
                current.append(max(previous[i], current[i - 1]))
        previous = current
    return previous[-1]


def lcs_string(a: str, b: str) -> str:
    """Return one longest common subsequence of ``a`` and ``b``.

    Used by diagnostics and by tests that want to inspect *which* characters
    matched, not only how many.

    >>> lcs_string("written", "writer")
    'write'
    """
    if not a or not b:
        return ""
    rows = len(a) + 1
    cols = len(b) + 1
    table = [[0] * cols for _ in range(rows)]
    for i in range(1, rows):
        for j in range(1, cols):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    # Walk back from the bottom-right corner collecting matched characters.
    chars: list[str] = []
    i, j = len(a), len(b)
    while i > 0 and j > 0:
        if a[i - 1] == b[j - 1]:
            chars.append(a[i - 1])
            i -= 1
            j -= 1
        elif table[i - 1][j] >= table[i][j - 1]:
            i -= 1
        else:
            j -= 1
    return "".join(reversed(chars))


def lcs_score(word: str, candidate: str) -> float:
    """The paper's one-sided score: ``|LCS(word, candidate)| / |word|``.

    Measures how much of ``word`` is explained by ``candidate``.  Note this
    is 1.0 whenever ``word`` is a subsequence of ``candidate`` — including
    the ``river``/``taxiDriver`` trap — which is why the pipeline uses
    :func:`subsequence_similarity` instead.
    """
    word = _normalize(word)
    candidate = _normalize(candidate)
    if not word:
        return 0.0
    return lcs_length(word, candidate) / len(word)


def char_profile(text: str) -> dict[str, int]:
    """Character multiset of the normalised text.

    Feeds :func:`subsequence_upper_bound`: the profile is computed once per
    catalogue label when a :class:`LabelIndex` is built, then reused across
    every scan.

    >>> char_profile("Deed") == {"d": 2, "e": 2}
    True
    """
    profile: dict[str, int] = {}
    for ch in _normalize(text):
        profile[ch] = profile.get(ch, 0) + 1
    return profile


def subsequence_upper_bound(
    profile_a: dict[str, int], len_a: int, profile_b: dict[str, int], len_b: int
) -> float:
    """Cheap sound upper bound on :func:`subsequence_similarity`.

    A common subsequence can use each character at most as often as it
    occurs in *both* strings, and can never be longer than either string,
    so ``|LCS| <= min(len_a, len_b, |bag(a) ∩ bag(b)|)`` and dividing by
    ``max(len_a, len_b)`` bounds the similarity.  O(alphabet) instead of
    the DP's O(len_a * len_b): the vocabulary scan uses it to skip label
    pairs that cannot reach the acceptance threshold.

    >>> a, b = char_profile("river"), char_profile("taxidriver")
    >>> subsequence_upper_bound(a, 5, b, 10) >= subsequence_similarity("river", "taxidriver")
    True
    """
    if len_a == 0 or len_b == 0:
        return 0.0
    small, large = (
        (profile_a, profile_b)
        if len(profile_a) <= len(profile_b)
        else (profile_b, profile_a)
    )
    common = 0
    for ch, count in small.items():
        other = large.get(ch, 0)
        common += count if count < other else other
    upper = min(common, len_a, len_b)
    return upper / (len_a if len_a > len_b else len_b)


def subsequence_similarity(word: str, candidate: str) -> float:
    """Symmetric LCS similarity: ``|LCS| / max(|word|, |candidate|)``.

    This is the operational form of the paper's "greatest common subsequence
    over the length of the word" guard: dividing by the longer string means
    ``river`` vs ``taxiDriver`` scores 5/10 = 0.5 rather than 1.0, while
    ``written`` vs ``writer`` scores 5/7 ≈ 0.714.

    >>> round(subsequence_similarity("river", "taxiDriver"), 2)
    0.5
    >>> round(subsequence_similarity("written", "writer"), 3)
    0.714
    """
    word = _normalize(word)
    candidate = _normalize(candidate)
    longest = max(len(word), len(candidate))
    if longest == 0:
        return 0.0
    return lcs_length(word, candidate) / longest


class LabelIndex:
    """Catalogue label words, bucketed by length and first character for
    pruned scans.

    Built from ``(name, words)`` entries: a property's local name and the
    words a scan scores a question word against (the name itself and its
    decamelised label words).  :meth:`words` hands them back in the given
    order, so a scorer reads them here instead of deriving them per scan.

    The vocabulary scan of 2.2.1/2.2.2 scores a question word against every
    property's name and label words.  Under the default LCS metric most of
    those pairs cannot reach the acceptance threshold on length grounds
    alone: :func:`subsequence_similarity` divides by the longer string, so a
    label of length ``L`` can only match a word of length ``n`` at
    threshold ``t`` when ``t*n <= L <= n/t``.  :meth:`feasible_names`

    1. visits only the length buckets inside the feasible window,
    2. rejects a whole first-character group when the character is absent
       from the question word *and* losing that one character already puts
       the bound below the threshold (boundary lengths of the window),
    3. applies the O(alphabet) :func:`subsequence_upper_bound` per
       surviving label before the scorer's O(n*L) DP runs.

    All three steps are sound over-approximations -- a name is skipped
    only when *no* label word of it can reach the threshold -- so the
    pruned scan returns exactly the candidate set of the full scan.  The
    bound is specific to subsequence similarity: a scan under any other
    metric reads :meth:`words` and visits every name.

    >>> index = LabelIndex([("birthPlace", ("birthPlace", "birth", "place"))])
    >>> index.words("birthPlace")
    ('birthPlace', 'birth', 'place')
    >>> index.feasible_names("places", 0.7), index.feasible_names("zz", 0.7)
    ({'birthPlace'}, set())
    """

    def __init__(self, entries: Iterable[tuple[str, tuple[str, ...]]]) -> None:
        self._words: dict[str, tuple[str, ...]] = {}
        # length -> first char -> list of (profile, name)
        self._buckets: dict[int, dict[str, list[tuple[dict[str, int], str]]]] = {}
        for name, words in entries:
            self._words[name] = words
            for word in set(words):
                normalized = _normalize(word)
                if not normalized:
                    continue
                by_first = self._buckets.setdefault(len(normalized), {})
                by_first.setdefault(normalized[0], []).append(
                    (char_profile(normalized), name)
                )

    def words(self, name: str) -> tuple[str, ...]:
        """The label words ``name`` was indexed with, in their given order."""
        return self._words[name]

    def feasible_names(self, word: str, threshold: float) -> set[str] | None:
        """Names that might reach ``threshold`` against ``word``.

        Returns None (meaning "scan everything") when the threshold does
        not permit pruning.
        """
        normalized = _normalize(word)
        length = len(normalized)
        if length == 0 or threshold <= 0.0:
            return None
        profile = char_profile(normalized)
        feasible: set[str] = set()
        for label_length, by_first in self._buckets.items():
            longer = max(length, label_length)
            if min(length, label_length) / longer < threshold:
                continue
            for first, entries in by_first.items():
                if first not in profile and min(length, label_length - 1) / longer < threshold:
                    continue
                for label_profile, name in entries:
                    if name in feasible:
                        continue
                    bound = subsequence_upper_bound(
                        profile, length, label_profile, label_length
                    )
                    if bound >= threshold:
                        feasible.add(name)
        return feasible
