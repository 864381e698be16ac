"""Surface-form index: from text mentions to candidate entities.

DBpedia exposes entity labels (``rdfs:label``) plus redirect/alias surface
forms.  The entity-spotting step of the disambiguator (section 2.2.5) looks
mentions up in this index; several entities can share a surface form
("Michael Jordan" the basketball player vs. the scientist), which is exactly
what disambiguation resolves.
"""

from __future__ import annotations

import re
from collections import defaultdict
from typing import Iterable, Iterator

from repro.rdf.terms import IRI

_WHITESPACE = re.compile(r"\s+")
_PUNCT = re.compile(r"[^\w\s]")


def normalize_surface(text: str) -> str:
    """Canonical form for surface matching: casefold, strip punctuation,
    collapse whitespace.

    >>> normalize_surface("  Orhan   PAMUK! ")
    'orhan pamuk'
    """
    text = text.replace("_", " ")
    text = _PUNCT.sub(" ", text)
    text = _WHITESPACE.sub(" ", text)
    return text.strip().casefold()


class SurfaceForms:
    """The lookup surface of a surface-form index: candidates, spotting
    and primary labels.

    Written once over two primitives each index kind provides:
    :meth:`_lookup` (a normalised form's candidate list, shared, or None)
    and :meth:`_starts` (whether some form may start with a normalised
    word; a false True only costs a lookup).  :class:`SurfaceFormIndex`
    is the mutable in-heap index; :class:`repro.kb.shipped.ShippedSurfaceForms`
    reads a segment directory's shipped index.
    """

    def _lookup(self, key: str) -> list[IRI] | None:
        raise NotImplementedError

    def _starts(self, word: str) -> bool:
        raise NotImplementedError

    def label(self, entity: IRI) -> str | None:
        """The primary label of an entity, if known."""
        raise NotImplementedError

    @property
    def max_words(self) -> int:
        """Longest registered surface form, in words (spotting window)."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def candidates(self, surface: str) -> list[IRI]:
        """Entities registered under a surface form (possibly several)."""
        return list(self._lookup(normalize_surface(surface)) or ())

    def starts_form(self, token: str) -> bool:
        """Whether some registered form starts with ``token``'s first word.

        When False, no span beginning with ``token`` can match, so a
        longest-match loop may skip the start position without a lookup.
        """
        return self._starts(normalize_surface(token).partition(" ")[0])

    def __contains__(self, surface: str) -> bool:
        return self._lookup(normalize_surface(surface)) is not None

    def spot(self, tokens: Iterable[str]) -> Iterator[tuple[int, int, list[IRI]]]:
        """Find all longest, non-overlapping surface matches in a token list.

        Yields ``(start, end, candidates)`` with ``end`` exclusive.  Greedy
        longest-match-first scan, the standard gazetteer-spotting strategy.

        Each token is normalised once: a window's key is the single-space
        join of its non-empty normalised tokens, which equals
        ``normalize_surface(" ".join(window))`` because every step of
        :func:`normalize_surface` works per character or per whitespace run.
        A start position whose first non-empty word begins no registered
        form is skipped without a lookup.
        """
        lookup, starts = self._lookup, self._starts
        max_words = self.max_words
        normalized = [normalize_surface(token) for token in tokens]
        index = 0
        while index < len(normalized):
            longest = min(max_words, len(normalized) - index)
            keys: list[str] = []  # keys[w - 1]: the width-w window's text
            key = ""
            for word in normalized[index:index + longest]:
                if word:
                    if not key and not starts(word.partition(" ")[0]):
                        break  # every window here starts with this word
                    key = f"{key} {word}" if key else word
                keys.append(key)
            for width in range(len(keys), 0, -1):
                candidates = lookup(keys[width - 1])
                if candidates:
                    yield (index, index + width, list(candidates))
                    index += width
                    break
            else:
                index += 1


class SurfaceFormIndex(SurfaceForms):
    """Maps normalised surface forms to candidate entity IRIs (in-heap,
    mutable)."""

    def __init__(self) -> None:
        self._forms: dict[str, list[IRI]] = defaultdict(list)
        self._primary_label: dict[IRI, str] = {}
        #: First word of every registered form: a span whose normalised
        #: text starts with any other word cannot match.
        self._first_words: set[str] = set()
        self._max_words = 1
        # The primitives are the dicts' own lookups: no call per window.
        self._lookup = self._forms.get
        self._starts = self._first_words.__contains__

    def add(self, entity: IRI, surface: str, primary: bool = False) -> None:
        """Register a surface form for an entity.

        ``primary`` marks the canonical label (used for display and for the
        string-similarity component of disambiguation).
        """
        normalized = normalize_surface(surface)
        if not normalized:
            return
        candidates = self._forms[normalized]
        if entity not in candidates:
            candidates.append(entity)
        self._first_words.add(normalized.partition(" ")[0])
        self._max_words = max(self._max_words, normalized.count(" ") + 1)
        if primary or entity not in self._primary_label:
            self._primary_label[entity] = surface

    def to_ids(self, encode) -> tuple[dict[str, list[int]], dict[int, str]]:
        """Every form with its candidates (insertion order) and every
        primary label, entities as ``encode(entity)`` (dictionary ids):
        what :func:`repro.kb.segment.write_index` ships."""
        return (
            {
                form: [encode(entity) for entity in candidates]
                for form, candidates in self._forms.items()
            },
            {
                encode(entity): label
                for entity, label in self._primary_label.items()
            },
        )

    def label(self, entity: IRI) -> str | None:
        return self._primary_label.get(entity)

    def __len__(self) -> int:
        return len(self._forms)

    @property
    def max_words(self) -> int:
        return self._max_words
