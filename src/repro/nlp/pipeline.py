"""The annotation pipeline: tokenise, chunk entities, tag, lemmatise, parse.

This is the CoreNLP-equivalent annotator chain.  Entity chunking plays the
role of CoreNLP's NER + multi-word-expression handling: maximal gazetteer
mentions ("Orhan Pamuk", "The Pillars of the Earth") are merged into single
NNP tokens *before* parsing, so the dependency templates see them as one
nominal unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kb.labels import SurfaceFormIndex
from repro.nlp.dependencies import DependencyGraph, Token
from repro.nlp.depparser import DependencyParser
from repro.nlp.morphology import lemmatize
from repro.nlp.postagger import PosTagger
from repro.nlp.tokenizer import tokenize
from repro.perf.lru import LRUCache
from repro.rdf.terms import IRI


@dataclass
class Mention:
    """A gazetteer match merged into one token."""

    token_index: int
    surface: str
    candidates: list[IRI] = field(default_factory=list)


@dataclass
class Sentence:
    """A fully annotated question."""

    text: str
    tokens: list[Token]
    graph: DependencyGraph
    mentions: list[Mention] = field(default_factory=list)

    def mention_at(self, token_index: int) -> Mention | None:
        for mention in self.mentions:
            if mention.token_index == token_index:
                return mention
        return None


class Pipeline:
    """Tokeniser + entity chunker + tagger + lemmatiser + parser.

    ``gazetteer`` is optional; without it the pipeline still works but
    multi-word names parse word-by-word (as raw CoreNLP would without NER),
    which degrades template coverage exactly like the paper's tool degrades
    on unrecognised names.
    """

    def __init__(
        self, gazetteer: SurfaceFormIndex | None = None, cache_size: int = 1024
    ) -> None:
        self._gazetteer = gazetteer
        self._tagger = PosTagger()
        self._parser = DependencyParser()
        #: text -> Sentence memo.  The annotation chain is deterministic
        #: and every consumer treats Sentence as read-only (Token and
        #: Dependency are frozen; DependencyGraph is mutated only during
        #: parsing), so repeated questions share one annotation.  Size 0
        #: disables the cache.
        self._cache = LRUCache(cache_size)

    def annotate(self, text: str) -> Sentence:
        """Run the full chain on one question (memoized on the text)."""
        sentence = self._cache.get(text)
        if sentence is not None:
            return sentence
        sentence = self.annotate_uncached(text)
        self._cache.put(text, sentence)
        return sentence

    def annotate_uncached(self, text: str) -> Sentence:
        """Run the full chain, bypassing (and not filling) the memo."""
        tokens, mentions = self._tokenize_and_tag(text)
        graph = self._parser.parse(tokens)
        return Sentence(text=text, tokens=tokens, graph=graph, mentions=mentions)

    def annotate_shallow(self, text: str) -> Sentence:
        """Degraded-mode annotation: tokenise, chunk and tag — no parse.

        Used by the reliability layer's fallback ladder when full
        annotation fails: the returned sentence carries a flat dependency
        graph (no arcs, no root, template ``"shallow-fallback"``) that the
        keyword pattern extractor can still work with.  Never cached — the
        memo must only ever hold full annotations, so a fault during
        annotation can't poison later clean runs.
        """
        tokens, mentions = self._tokenize_and_tag(text)
        graph = DependencyGraph(tokens, root=None)
        graph.template = "shallow-fallback"
        return Sentence(text=text, tokens=tokens, graph=graph, mentions=mentions)

    def _tokenize_and_tag(self, text: str) -> tuple[list[Token], list[Mention]]:
        """The pre-parse half of the chain, shared by both annotate modes."""
        raw_tokens = tokenize(text)
        merged, __ = self._merge_entities(raw_tokens)
        tags = self._tagger.tag([surface for surface, __ in merged])

        tokens: list[Token] = []
        mentions: list[Mention] = []
        for index, ((surface, candidates), pos) in enumerate(zip(merged, tags)):
            if candidates is not None:
                pos = "NNP"
                tokens.append(Token(index, surface, surface, pos, entity=True))
                mentions.append(Mention(index, surface, candidates))
            else:
                tokens.append(Token(index, surface, lemmatize(surface, pos), pos))
        return tokens, mentions

    # ------------------------------------------------------------------

    def _merge_entities(
        self, raw_tokens: list[str]
    ) -> tuple[list[tuple[str, list[IRI] | None]], list[tuple[int, int]]]:
        """Merge maximal gazetteer mentions into single pseudo-tokens.

        Only spans containing a capitalised word are merged, so generic
        lower-case words that happen to be entity labels ("bad", "snow")
        never hijack the parse.
        """
        if self._gazetteer is None:
            return [(token, None) for token in raw_tokens], []
        merged: list[tuple[str, list[IRI] | None]] = []
        spans: list[tuple[int, int]] = []
        index = 0
        while index < len(raw_tokens):
            match = self._longest_mention(raw_tokens, index)
            if match is not None:
                end, candidates = match
                surface = " ".join(raw_tokens[index:end])
                merged.append((surface, candidates))
                spans.append((index, end))
                index = end
            else:
                merged.append((raw_tokens[index], None))
                index += 1
        return merged, spans

    def _longest_mention(
        self, tokens: list[str], start: int
    ) -> tuple[int, list[IRI]] | None:
        assert self._gazetteer is not None
        # Exact prune: every span tried below starts with this token, and a
        # token that begins no form (punctuation and empty tokens included)
        # can never lead a match.
        if not self._gazetteer.starts_form(tokens[start]):
            return None
        longest = min(self._gazetteer.max_words, len(tokens) - start)
        for width in range(longest, 0, -1):
            span = tokens[start:start + width]
            if any(not token or not (token[0].isalnum()) for token in span):
                continue  # punctuation can never be part of a mention
            if not any(token[0].isupper() for token in span):
                continue
            # Skip spans that are pure question machinery even if an entity
            # label collides with them (e.g. a band called "Who").
            if width == 1 and span[0].lower() in _STOP_MENTIONS:
                continue
            candidates = self._gazetteer.candidates(" ".join(span))
            if candidates:
                return (start + width, candidates)
        return None


_STOP_MENTIONS = {
    "who", "what", "which", "where", "when", "how", "is", "are", "was",
    "were", "the", "a", "an", "of", "in", "by", "give", "me",
}
