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


class SurfaceFormIndex:
    """Maps normalised surface forms to candidate entity IRIs."""

    def __init__(self) -> None:
        self._forms: dict[str, list[IRI]] = defaultdict(list)
        self._primary_label: dict[IRI, str] = {}
        #: First word of every registered form: a span whose normalised
        #: text starts with any other word cannot match.
        self._first_words: set[str] = set()
        self._max_words = 1

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

    def to_state(self, encode) -> dict:
        """A JSON-able copy of the index: every form with its candidates
        and every primary label, in insertion order.  ``encode`` maps an
        entity to its JSON form (a dictionary id)."""
        return {
            "forms": [
                [form, [encode(entity) for entity in candidates]]
                for form, candidates in self._forms.items()
            ],
            "labels": [
                [encode(entity), label]
                for entity, label in self._primary_label.items()
            ],
        }

    @classmethod
    def from_state(cls, state: dict, decode) -> "SurfaceFormIndex":
        """Inverse of :meth:`to_state`; ``decode`` inverts its ``encode``."""
        index = cls()
        forms = index._forms
        for form, entities in state["forms"]:
            forms[form] = [decode(entity) for entity in entities]
        index._primary_label = {
            decode(entity): label for entity, label in state["labels"]
        }
        index._first_words = {form.partition(" ")[0] for form in forms}
        index._max_words = max(
            (form.count(" ") + 1 for form in forms), default=1
        )
        return index

    def candidates(self, surface: str) -> list[IRI]:
        """Entities registered under a surface form (possibly several)."""
        return list(self._forms.get(normalize_surface(surface), ()))

    def starts_form(self, token: str) -> bool:
        """Whether some registered form starts with ``token``'s first word.

        When False, no span beginning with ``token`` can match, so a
        longest-match loop may skip the start position without a lookup.
        """
        return normalize_surface(token).partition(" ")[0] in self._first_words

    def label(self, entity: IRI) -> str | None:
        """The primary label of an entity, if known."""
        return self._primary_label.get(entity)

    def __contains__(self, surface: str) -> bool:
        return normalize_surface(surface) in self._forms

    def __len__(self) -> int:
        return len(self._forms)

    @property
    def max_words(self) -> int:
        """Longest registered surface form, in words (spotting window)."""
        return self._max_words

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
        normalized = [normalize_surface(token) for token in tokens]
        index = 0
        while index < len(normalized):
            longest = min(self._max_words, len(normalized) - index)
            keys: list[str] = []  # keys[w - 1]: the width-w window's text
            key = ""
            for word in normalized[index:index + longest]:
                if word:
                    if not key and word.partition(" ")[0] not in self._first_words:
                        break  # every window here starts with this word
                    key = f"{key} {word}" if key else word
                keys.append(key)
            for width in range(len(keys), 0, -1):
                candidates = self._forms.get(keys[width - 1])
                if candidates:
                    yield (index, index + width, list(candidates))
                    index += width
                    break
            else:
                index += 1
