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

:class:`LabelIndex` scores a word against a whole property catalogue in
one pass: the bit-vector LCS recurrence of Allison and Dix (1986), in
Hyyrö's form (2004), run in one Python int over every label word at once.
:func:`lcs_length` is the reference dynamic programme its tests compare
it with.
"""

from __future__ import annotations

import math
from typing import Iterable


def _normalize(text: str) -> str:
    """Strip surrounding whitespace and lower-case, for fair comparison."""
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


def _least_passing_count(length: int, label_length: int, threshold: float) -> int:
    """The least LCS length ``k`` with ``k / max(length, label_length) >=
    threshold``, in the float arithmetic of :func:`subsequence_similarity`,
    or ``min(length, label_length) + 1`` when no common subsequence is long
    enough.

    >>> _least_passing_count(7, 6, 0.7), _least_passing_count(2, 10, 0.7)
    (5, 3)
    """
    longest = max(length, label_length)
    shortest = min(length, label_length)
    if threshold <= 0.0:
        return 0
    count = min(math.ceil(threshold * longest), shortest + 1)
    while count > 0 and (count - 1) / longest >= threshold:
        count -= 1
    while count <= shortest and count / longest < threshold:
        count += 1
    return count


class LabelIndex:
    """Catalogue label words, packed for one bit-parallel LCS pass.

    Built from ``(name, words)`` entries in catalogue order: a property's
    local name and the words a scan scores a question word against (the
    name itself and its decamelised label words).  :meth:`words` hands
    them back in the given order.

    :meth:`scores` is the vocabulary scan of 2.2.1/2.2.2 under
    :func:`subsequence_similarity`, run over every label word at once.
    Each distinct normalised label word owns one lane of ``width`` bits in
    a single int, its characters in the lane's low bits; ``width`` is 32,
    or the next power of two that leaves one guard bit above the longest
    word.  ``masks[c]`` sets the bit of every label character equal to
    ``c``.  Starting from ``V = ones`` (every lane's label bits), each
    character ``c`` of the question word applies Hyyrö's form of the
    Allison-Dix recurrence::

        U = V & masks[c]
        V = ((V + U) | (V - U)) & ones

    A carry ends in the bits above a lane's label, and the mask clears it,
    so no carry crosses a lane.  A lane's LCS is the number of label bits
    ``V`` has cleared.  A SWAR popcount yields every lane's count in the
    top byte (or wider field) of its lane; adding the lane's headroom
    (its guard bit less the least passing count) sets the guard bit of
    exactly the lanes that reach the threshold.  The scores are then
    ``count / max(n, m)``, exactly :func:`subsequence_similarity`'s.

    >>> index = LabelIndex([("birthPlace", ("birthPlace", "birth", "place"))])
    >>> index.words("birthPlace")
    ('birthPlace', 'birth', 'place')
    >>> index.scores("places", 0.7), index.scores("zz", 0.7)
    ({'birthPlace': 0.8333333333333334}, {})
    """

    def __init__(self, entries: Iterable[tuple[str, tuple[str, ...]]]) -> None:
        self._words: dict[str, tuple[str, ...]] = {}
        self._names: list[str] = []
        #: Catalogue positions whose every word normalises to "": they
        #: score 0.0 against any word.
        self._blank: list[int] = []
        positions_of: dict[str, list[int]] = {}
        for position, (name, words) in enumerate(entries):
            self._words[name] = words
            self._names.append(name)
            normalized = [
                word for word in dict.fromkeys(map(_normalize, words)) if word
            ]
            if not normalized:
                self._blank.append(position)
            for word in normalized:
                positions_of.setdefault(word, []).append(position)

        width = 32
        while width <= max(map(len, positions_of), default=0):
            width *= 2
        # Counts are summed into one ``field``-bit field per lane, wide
        # enough for the lane's count and least passing count below its
        # top (guard) bit.
        field = 8
        while 1 << (field - 1) < width:
            field *= 2
        lane_bytes = width // 8
        lanes = len(positions_of)
        size = lanes * lane_bytes
        lane_words = list(positions_of)
        # Bits are set in byte buffers and packed once per character: ORing
        # each label into a growing int would copy it once per label.
        masks = {char: bytearray(size) for char in set().union(*lane_words)}
        units: dict[int, bytearray] = {}
        for lane, word in enumerate(lane_words):
            base = lane * width
            for offset, char in enumerate(word):
                bit = base + offset
                masks[char][bit >> 3] |= 1 << (bit & 7)
            unit = units.get(len(word))
            if unit is None:
                unit = units[len(word)] = bytearray(size)
            unit[(base + width - field) >> 3] = 1
        #: Per lane: its label word's length, and the catalogue positions
        #: of the names it is a word of.
        self._lane_lengths = [len(word) for word in lane_words]
        self._lane_positions = [
            tuple(positions) for positions in positions_of.values()
        ]

        def packed(buffer: bytes | bytearray) -> int:
            return int.from_bytes(buffer, "little")

        field_bytes = field // 8
        self._masks = {char: packed(mask) for char, mask in masks.items()}
        self._ones = 0
        for mask in self._masks.values():
            self._ones |= mask
        #: Per label length: one unit in the count field of each lane of
        #: that length, to build a headroom vector in one product per length.
        self._units = [(length, packed(unit)) for length, unit in units.items()]
        self._field = field
        self._lane_shift = width.bit_length() - 1
        self._guard = packed((bytes(lane_bytes - 1) + b"\x80") * lanes)
        self._count_fields = packed(
            (bytes(lane_bytes - field_bytes) + b"\xff" * field_bytes) * lanes
        )
        self._swar = tuple(
            packed(pattern * size) for pattern in (b"\x55", b"\x33", b"\x0f")
        )
        # Byte counts fold into ``field``-bit fields; the product by
        # ``spread`` then sums a lane's fields into its top one.
        self._folds: list[tuple[int, int]] = []
        shift = 8
        while shift < field:
            half = b"\xff" * (shift // 8) + bytes(shift // 8)
            self._folds.append((packed(half * (size // len(half))), shift))
            shift *= 2
        self._spread = sum(1 << (field * k) for k in range(width // field))
        #: (word length, threshold) -> headroom vector (:meth:`_headroom`).
        self._headrooms: dict[tuple[int, float], int] = {}

    def words(self, name: str) -> tuple[str, ...]:
        """The label words ``name`` was indexed with, in their given order."""
        return self._words[name]

    def scores(self, word: str, threshold: float) -> dict[str, float]:
        """Every name whose best label word reaches ``threshold`` against
        ``word`` under :func:`subsequence_similarity`, with that score, in
        catalogue order."""
        word = _normalize(word)
        length = len(word)
        masks = self._masks
        ones = v = self._ones
        for char in word:
            match = masks.get(char)
            if match is not None:
                u = v & match
                v = ((v + u) | (v - u)) & ones
        low, pairs, nibbles = self._swar
        counts = ones ^ v
        counts -= (counts >> 1) & low
        counts = (counts & pairs) + ((counts >> 2) & pairs)
        counts = (counts + (counts >> 4)) & nibbles
        for mask, shift in self._folds:
            counts = (counts & mask) + ((counts >> shift) & mask)
        counts = (counts * self._spread) & self._count_fields
        passing = (counts + self._headroom(length, threshold)) & self._guard

        field = self._field
        field_mask = (1 << field) - 1
        best: dict[int, float] = {}
        while passing:
            guard = passing & -passing
            passing ^= guard
            bit = guard.bit_length() - 1
            lane = bit >> self._lane_shift
            count = (counts >> (bit + 1 - field)) & field_mask
            score = count / max(length, self._lane_lengths[lane])
            for position in self._lane_positions[lane]:
                if score > best.get(position, -1.0):
                    best[position] = score
        if self._blank and 0.0 >= threshold:
            best.update(dict.fromkeys(self._blank, 0.0))
        names = self._names
        return {names[position]: best[position] for position in sorted(best)}

    def _headroom(self, length: int, threshold: float) -> int:
        """Per lane, its guard bit less its least passing count (in its
        count field), for a word of ``length`` characters.

        Memoized on the index; two threads that race on an entry each
        store an equal vector.
        """
        key = (length, threshold)
        headroom = self._headrooms.get(key)
        if headroom is None:
            caps = 0
            for label_length, unit in self._units:
                caps += _least_passing_count(length, label_length, threshold) * unit
            headroom = self._headrooms[key] = self._guard - caps
        return headroom
