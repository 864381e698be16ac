"""Distant-supervision pattern extraction.

Follows PATTY's extraction stage: find sentences mentioning two known
entities, lift the connecting phrase into a normalised (lemmatised) pattern,
and attribute the occurrence to every knowledge-base relation holding
between the entity pair.  The ground-truth relation attached to the
generated sentences is **not** consulted — attribution goes through the KB
exactly as distant supervision would over a real corpus, which is what
lets noise creep in (a "was born in" sentence between a person and the city
they both were born *and* died in is attributed to both relations).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Sequence

from repro.kb.builder import KnowledgeBase
from repro.kb.pagelinks import WIKI_PAGE_LINK
from repro.nlp.morphology import lemmatize
from repro.nlp.postagger import PosTagger
from repro.nlp.tokenizer import tokenize
from repro.patty.corpus import CorpusSentence
from repro.patty.patterns import PatternOccurrence, RelationalPattern
from repro.rdf.namespaces import DBO, RDF, RDFS
from repro.rdf.terms import IRI

#: Patterns longer than this many tokens are discarded (PATTY's
#: frequent-pattern length bound).
MAX_PATTERN_TOKENS = 6

_SKIP_PREDICATES = {WIKI_PAGE_LINK, RDF.type, RDFS.label}


class PatternExtractor:
    """Extracts and aggregates relational patterns from sentences."""

    def __init__(self, kb: KnowledgeBase) -> None:
        self._kb = kb
        self._tagger = PosTagger()

    # ------------------------------------------------------------------

    def extract(self, sentences: Iterable[CorpusSentence]) -> list[PatternOccurrence]:
        """Produce one occurrence per (sentence, attributed relation).

        Each distinct sentence text is extracted once and each entity
        pair's relations are looked up once; a repeated sentence adds its
        occurrences again, so frequencies and supports are unchanged.  Both
        memos live for this call only, because the KB may change between
        calls.
        """
        occurrences: list[PatternOccurrence] = []
        # Tuples, not lists: most sentences yield nothing, and all empty
        # tuples are one object, so the memo adds little to peak memory.
        by_text: dict[str, tuple[PatternOccurrence, ...]] = {}
        relations: dict[tuple[IRI, IRI], list[str]] = {}
        for sentence in sentences:
            found = by_text.get(sentence.text)
            if found is None:
                found = by_text[sentence.text] = tuple(
                    self._extract_one(sentence.text, relations))
            occurrences.extend(found)
        return occurrences

    def _extract_one(
        self, text: str, relations: dict[tuple[IRI, IRI], list[str]]
    ) -> list[PatternOccurrence]:
        tokens = tokenize(text)
        spots = list(self._kb.surface_index.spot(tokens))
        if len(spots) < 2:
            return []
        (start_a, end_a, candidates_a), (start_b, end_b, candidates_b) = spots[:2]
        between = tokens[end_a:start_b]
        pattern = self._normalise(between)
        if pattern is None:
            return []
        out: list[PatternOccurrence] = []
        # Ambiguous mentions: attribute through every candidate pair that
        # the KB connects (PATTY used its own NED; ambiguity noise remains).
        for entity_a in candidates_a:
            for entity_b in candidates_b:
                pair = (entity_a, entity_b)
                if pair not in relations:
                    relations[pair] = self._relations_between(entity_a, entity_b)
                for relation in relations[pair]:
                    out.append(PatternOccurrence(
                        pattern=pattern,
                        subject=entity_a.local_name,
                        object=entity_b.local_name,
                        relation=relation,
                        sentence=text,
                    ))
        return out

    def _normalise(self, tokens: Sequence[str]) -> str | None:
        words = [t for t in tokens if any(ch.isalnum() for ch in t)]
        if not words or len(words) > MAX_PATTERN_TOKENS:
            return None
        tags = self._tagger.tag(list(words))
        lemmas = [lemmatize(word, tag).lower() for word, tag in zip(words, tags)]
        return " ".join(lemmas)

    def _relations_between(self, a, b) -> list[str]:
        relations = []
        for __, predicate, __o in self._kb.graph.match(a, None, b):
            if predicate not in _SKIP_PREDICATES and predicate in DBO:
                relations.append(predicate.local_name)
        for __, predicate, __o in self._kb.graph.match(b, None, a):
            if predicate not in _SKIP_PREDICATES and predicate in DBO:
                relations.append(predicate.local_name)
        return relations

    # ------------------------------------------------------------------

    @staticmethod
    def aggregate(
        occurrences: Iterable[PatternOccurrence],
    ) -> dict[tuple[str, str], RelationalPattern]:
        """Group occurrences into (pattern text, relation) aggregates."""
        aggregates: dict[tuple[str, str], RelationalPattern] = {}
        for occurrence in occurrences:
            key = (occurrence.pattern, occurrence.relation)
            aggregate = aggregates.get(key)
            if aggregate is None:
                aggregate = RelationalPattern(occurrence.pattern, occurrence.relation)
                aggregates[key] = aggregate
            aggregate.record(occurrence.subject, occurrence.object)
        return aggregates
