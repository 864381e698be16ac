"""Entity and property extraction (section 2.2).

For every triple pattern from section 2.1, each slot is mapped to DBpedia
vocabulary:

* **named entities** (2.2.5) through the page-link disambiguator;
* **classes** (2.2.4) through ontology labels, for ``rdf:type`` objects;
* **verb predicates** (2.2.1) through string similarity over object
  properties, expanded with WordNet-similar property pairs;
* **noun/adjective predicates** (2.2.2) through string similarity over
  property labels and the WordNet adjective map;
* **any predicate** (2.2.3) through the PATTY pattern store, ranked by
  pattern frequency.

Candidate weights feed the ranking of section 2.3.1: pattern candidates
carry their corpus frequency, similarity candidates their score in [0, 1]
(the paper leaves the weight of non-pattern candidates unspecified; scores
are only ever compared within one question, so the mixed scale is safe and
pattern evidence deliberately dominates).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import PipelineConfig
from repro.core.triples import Slot, SlotKind, TriplePattern
from repro.kb.builder import KnowledgeBase
from repro.kb.ontology import PropertyDef, PropertyKind
from repro.ned.disambiguator import Disambiguator
from repro.nlp.pipeline import Sentence
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.patty.store import PatternStore
from repro.perf.lru import LRUCache
from repro.similarity.cache import MemoizedSimilarity
from repro.similarity.lcs import char_profile, subsequence_upper_bound
from repro.rdf.namespaces import RDF
from repro.rdf.terms import IRI, Term, Variable
from repro.similarity import get_similarity, memoize_similarity
from repro.wordnet.adjectives import AdjectivePropertyMap
from repro.wordnet.pairs import SimilarPropertyIndex


@dataclass(frozen=True)
class PredicateCandidate:
    """One possible predicate IRI with its evidence."""

    iri: IRI
    kind: PropertyKind | None  # None for rdf:type
    weight: float
    source: str  # "pattern" | "similarity" | "wordnet" | "adjective" | "rdf:type"


@dataclass
class CandidateTriple:
    """A triple pattern with per-slot candidate lists."""

    pattern: TriplePattern
    subjects: list[Term] = field(default_factory=list)
    predicates: list[PredicateCandidate] = field(default_factory=list)
    objects: list[Term] = field(default_factory=list)

    @property
    def mapped(self) -> bool:
        return bool(self.subjects and self.predicates and self.objects)


class MappingFailure(Exception):
    """A slot could not be mapped; the question is unanswerable (the
    'cannot process' bucket of Table 2)."""

    def __init__(self, pattern: TriplePattern, slot_name: str) -> None:
        super().__init__(f"cannot map {slot_name} of {pattern}")
        self.pattern = pattern
        self.slot_name = slot_name


class _ScanIndex:
    """Length/first-character-bucketed catalogue labels for pruned scans.

    The vocabulary scan of 2.2.1/2.2.2 scores a question word against every
    property's name and label words.  Under the default LCS metric most of
    those pairs cannot reach the acceptance threshold on length grounds
    alone: ``subsequence_similarity`` divides by the longer string, so a
    label of length ``L`` can only match a word of length ``n`` at
    threshold ``t`` when ``t*n <= L <= n/t``.  This index buckets every
    catalogue label word by ``(length, first character)`` at construction;
    a scan then

    1. visits only the length buckets inside the feasible window,
    2. rejects a whole first-character group when the character is absent
       from the question word *and* losing that one character already puts
       the bound below the threshold (boundary lengths of the window),
    3. applies the O(alphabet) :func:`~repro.similarity.lcs.subsequence_upper_bound`
       per surviving label before the scorer's O(n*L) DP runs.

    All three steps are sound over-approximations — a property is skipped
    only when *no* label word of it can reach the threshold — so the pruned
    scan returns exactly the candidate set of the full scan.
    """

    def __init__(self, properties: list[PropertyDef]) -> None:
        # length -> first char -> list of (profile, property name)
        self._buckets: dict[int, dict[str, list[tuple[dict[str, int], str]]]] = {}
        for prop in properties:
            for word in {prop.name, *prop.display_label().split()}:
                normalized = word.strip().lower()
                if not normalized:
                    continue
                by_first = self._buckets.setdefault(len(normalized), {})
                by_first.setdefault(normalized[0], []).append(
                    (char_profile(normalized), prop.name)
                )

    def feasible_names(self, word: str, threshold: float) -> set[str] | None:
        """Property names that might reach ``threshold`` against ``word``.

        Returns None (meaning "scan everything") when the threshold does
        not permit pruning.
        """
        normalized = word.strip().lower()
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


class TripleMapper:
    """Maps triple-pattern slots onto the knowledge-base vocabulary."""

    def __init__(
        self,
        kb: KnowledgeBase,
        pattern_store: PatternStore,
        similar_pairs: SimilarPropertyIndex,
        adjective_map: AdjectivePropertyMap,
        config: PipelineConfig | None = None,
        data_pattern_store: PatternStore | None = None,
        stats: MetricsRegistry | None = None,
        tracer=None,
    ) -> None:
        self._kb = kb
        self._patterns = pattern_store
        self._pairs = similar_pairs
        self._adjectives = adjective_map
        self._config = config if config is not None else PipelineConfig()
        self._stats = stats
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._similarity = get_similarity(self._config.similarity)
        if self._config.enable_similarity_cache:
            # Shared across questions (and across the NED below): scores are
            # pure string functions, so entries never go stale.
            self._similarity = memoize_similarity(
                self._similarity, stats=stats, name="similarity"
            )
        self._ned = Disambiguator(kb, similarity=self._similarity)
        #: Memo for the per-(word, property) best-of-label-words score of
        #: :meth:`_property_similarity` — the hot inner loop of 2.2.1/2.2.2.
        self._property_scores = LRUCache(65536)
        #: Memo for the full similarity scan over the property catalogue:
        #: (word, is_verb) -> tuple of above-threshold candidates.  The
        #: catalogue and threshold are fixed per mapper, so the scan is a
        #: pure function of its key.
        self._scan_cache = LRUCache(8192)
        #: Memo for WordNet similar-pair expansions (2.2.1), keyed on the
        #: property local name; the index is immutable after construction.
        self._similar_names: dict[str, tuple[str, ...]] = {}
        #: Length/first-char-bucketed label indexes for the pruned scan,
        #: built lazily per catalogue flavour (verb -> object properties
        #: only).  Sound only for the default LCS metric — the bound in
        #: :class:`_ScanIndex` is specific to subsequence similarity — so
        #: ablation configs with other metrics keep the full scan.
        self._scan_indexes: dict[bool, _ScanIndex] = {}
        self._prune_scans = (
            self._config.enable_scan_pruning
            and self._config.similarity == "lcs"
        )
        #: Optional extension resource (section 5 research gap): patterns
        #: for data properties, consulted only when the config enables it.
        self._data_patterns = data_pattern_store

    # ------------------------------------------------------------------

    def map(self, sentence: Sentence, bucket: list[TriplePattern]) -> list[CandidateTriple]:
        """Map every pattern; raises :class:`MappingFailure` when a slot
        has no candidates."""
        entity_bindings = self._disambiguate_entities(sentence, bucket)
        mapped: list[CandidateTriple] = []
        for pattern in bucket:
            candidate = CandidateTriple(pattern)
            candidate.subjects = self._map_argument(
                pattern, pattern.subject, "subject", entity_bindings
            )
            candidate.objects = self._map_argument(
                pattern, pattern.object, "object", entity_bindings
            )
            candidate.predicates = self._map_predicate(pattern)
            mapped.append(candidate)
        return mapped

    def cache_snapshot(self) -> dict[str, dict]:
        """Hit/miss counters of the mapping-stage caches.

        The tracer diffs two snapshots around the map stage to attach
        per-question cache sub-spans (docs/observability.md); each entry
        carries at least ``hits`` and ``misses``.
        """
        snapshot: dict[str, dict] = {
            "mapping.scan_cache": self._scan_cache.stats(),
            "mapping.property_scores": self._property_scores.stats(),
        }
        if isinstance(self._similarity, MemoizedSimilarity):
            snapshot["similarity.memo"] = self._similarity.snapshot()
        return snapshot

    def export_warm_memos(self) -> dict:
        """Picklable similarity memo contents for crash-safe restarts.

        Only the pure-string memos travel: ``(a, b) -> score`` from the
        similarity memo and ``(word, property) -> score`` from the
        per-property memo.  The scan cache holds catalogue-derived objects
        and is cheap to re-earn, so it stays behind.
        """
        memos: dict[str, list] = {"property_scores": self._property_scores.items()}
        if isinstance(self._similarity, MemoizedSimilarity):
            memos["similarity"] = self._similarity.cache.items()
        return memos

    def import_warm_memos(self, memos: dict) -> int:
        """Restore :meth:`export_warm_memos` output; returns entries loaded."""
        restored = 0
        for key, score in memos.get("property_scores", ()):
            self._property_scores.put(key, score)
            restored += 1
        if isinstance(self._similarity, MemoizedSimilarity):
            for key, score in memos.get("similarity", ()):
                self._similarity.cache.put(key, score)
                restored += 1
        return restored

    # ------------------------------------------------------------------
    # Arguments (2.2.4 / 2.2.5)
    # ------------------------------------------------------------------

    def _disambiguate_entities(
        self, sentence: Sentence, bucket: list[TriplePattern]
    ) -> dict[str, IRI]:
        """Jointly disambiguate all entity mentions of the question."""
        mentions: list[tuple[str, list[IRI]]] = []
        seen: set[str] = set()
        for pattern in bucket:
            for slot in (pattern.subject, pattern.object):
                if slot.kind is not SlotKind.ENTITY or slot.text in seen:
                    continue
                seen.add(slot.text)
                mention = (
                    sentence.mention_at(slot.token.index)
                    if slot.token is not None else None
                )
                candidates = (
                    mention.candidates if mention is not None
                    else self._kb.surface_index.candidates(slot.text)
                )
                if candidates:
                    mentions.append((slot.text, candidates))
        results = self._ned.disambiguate(mentions)
        return {result.surface: result.entity for result in results}

    def _map_argument(
        self,
        pattern: TriplePattern,
        slot: Slot,
        slot_name: str,
        entity_bindings: dict[str, IRI],
    ) -> list[Term]:
        if slot.is_variable:
            return [Variable("x")]
        if slot.kind is SlotKind.ENTITY:
            entity = entity_bindings.get(slot.text)
            if entity is None:
                raise MappingFailure(pattern, slot_name)
            return [entity]
        if pattern.predicate.kind is SlotKind.RDF_TYPE and slot_name == "object":
            classes = self._kb.classes_for_label(slot.text)
            if not classes:
                raise MappingFailure(pattern, slot_name)
            return list(classes)
        # A plain text argument: last chance through the surface index
        # (lower-case mentions the chunker did not merge).
        candidates = self._kb.surface_index.candidates(slot.text)
        if candidates:
            return candidates[:1]
        raise MappingFailure(pattern, slot_name)

    # ------------------------------------------------------------------
    # Predicates (2.2.1 / 2.2.2 / 2.2.3)
    # ------------------------------------------------------------------

    def _map_predicate(self, pattern: TriplePattern) -> list[PredicateCandidate]:
        slot = pattern.predicate
        if slot.kind is SlotKind.RDF_TYPE:
            return [PredicateCandidate(RDF.type, None, 1.0, "rdf:type")]

        token = slot.token
        word = slot.text.lower()
        is_verb = token is not None and token.is_verb()
        is_adjective = token is not None and token.is_adjective()

        candidates: dict[IRI, PredicateCandidate] = {}

        def offer(candidate: PredicateCandidate) -> None:
            existing = candidates.get(candidate.iri)
            if existing is None or candidate.weight > existing.weight:
                candidates[candidate.iri] = candidate

        # 2.2.3 — relational patterns, any predicate kind.
        if self._config.use_patterns:
            for name, frequency in self._patterns.properties_for(word):
                prop = self._kb.ontology.get_property(name)
                offer(PredicateCandidate(prop.iri, prop.kind, float(frequency), "pattern"))

        # Extension (section 5 research gap): data-property patterns.
        if (
            self._config.enable_data_property_patterns
            and self._data_patterns is not None
        ):
            for name, frequency in self._data_patterns.properties_for(word):
                prop = self._kb.ontology.get_property(name)
                offer(PredicateCandidate(
                    prop.iri, prop.kind, float(frequency), "data-pattern"
                ))

        # 2.2.1 / 2.2.2 — string similarity against the property catalogue.
        # Verbs target object properties, nouns and adjectives any property
        # (the paper sends nouns to data properties; role nouns like
        # "mayor" additionally match object properties by name).
        for candidate in self._similarity_candidates(word, is_verb):
            offer(candidate)

        # 2.2.2 — the WordNet adjective map.
        if self._config.use_adjective_map and (is_adjective or not is_verb):
            for name in self._adjectives.properties_for(word):
                prop = self._kb.ontology.get_property(name)
                offer(PredicateCandidate(prop.iri, prop.kind, 1.0, "adjective"))

        # 2.2.1 — WordNet-similar property expansion.
        if self._config.use_wordnet_pairs:
            for existing in list(candidates.values()):
                if existing.kind is not PropertyKind.OBJECT:
                    continue
                for similar_name in self._similar_to(existing.iri.local_name):
                    prop = self._kb.ontology.get_property(similar_name)
                    offer(PredicateCandidate(
                        prop.iri,
                        prop.kind,
                        existing.weight * self._config.wordnet_expansion_discount,
                        "wordnet",
                    ))

        if not candidates:
            raise MappingFailure(pattern, "predicate")
        ranked = sorted(candidates.values(), key=lambda c: (-c.weight, c.iri.value))
        kept = ranked[: self._config.max_predicate_candidates]
        if self._tracer.active:
            # Chosen-vs-rejected rationale for the explain tree: which IRIs
            # survived the per-slot cap, with their scores and evidence.
            self._tracer.event(
                "predicate-candidates",
                predicate=slot.text,
                chosen=[
                    (c.iri.local_name, round(c.weight, 6), c.source) for c in kept
                ],
                rejected=[
                    (c.iri.local_name, round(c.weight, 6), c.source)
                    for c in ranked[len(kept):len(kept) + 10]
                ],
                rejected_total=max(0, len(ranked) - len(kept)),
            )
        return kept

    def _similarity_candidates(
        self, word: str, is_verb: bool
    ) -> tuple[PredicateCandidate, ...]:
        """Above-threshold similarity candidates for one predicate word.

        Scanning the whole property catalogue per question is the mapping
        stage's hot loop; question words repeat heavily across a batch, so
        the scan result is memoized (candidates are frozen dataclasses and
        safe to share).  With the cache disabled this is exactly the seed's
        per-question scan.
        """
        use_cache = self._config.enable_similarity_cache
        key = (word, is_verb)
        if use_cache:
            cached = self._scan_cache.get(key)
            if cached is not None:
                if self._stats is not None:
                    self._stats.inc("mapping.scan_cache.hits")
                return cached
        searchable = list(
            self._kb.ontology.object_properties()
            if is_verb else self._kb.ontology.properties()
        )
        threshold = self._config.similarity_threshold
        if self._prune_scans:
            index = self._scan_indexes.get(is_verb)
            if index is None:
                index = self._scan_indexes[is_verb] = _ScanIndex(searchable)
            feasible = index.feasible_names(word, threshold)
            if feasible is not None:
                # Filtering (not replacing) ``searchable`` preserves the
                # full scan's catalogue order exactly.
                pool = [prop for prop in searchable if prop.name in feasible]
                if self._stats is not None:
                    self._stats.inc(
                        "mapping.scan_pruned", len(searchable) - len(pool)
                    )
                searchable = pool
        found = tuple(
            PredicateCandidate(prop.iri, prop.kind, score, "similarity")
            for prop in searchable
            if (score := self._property_similarity(word, prop)) >= threshold
        )
        if use_cache:
            self._scan_cache.put(key, found)
            if self._stats is not None:
                self._stats.inc("mapping.scan_cache.misses")
        return found

    def _similar_to(self, name: str) -> tuple[str, ...]:
        """WordNet-similar property names, memoized across questions.

        ``SimilarPropertyIndex.similar_to`` builds a fresh set per call;
        the underlying index never changes after construction, so the
        sorted tuple is cached forever.  Sorting pins the candidate-offer
        order (and therefore tie-breaking) regardless of set iteration
        order.
        """
        cached = self._similar_names.get(name)
        if cached is None:
            cached = self._similar_names[name] = tuple(
                sorted(self._pairs.similar_to(name))
            )
        return cached

    def _property_similarity(self, word: str, prop: PropertyDef) -> float:
        """Best similarity between the word and the property's name or any
        word of its decamelised label."""
        if not self._config.enable_similarity_cache:
            return self._property_similarity_uncached(word, prop)
        key = (word, prop.name)
        score = self._property_scores.get(key)
        if score is None:
            score = self._property_similarity_uncached(word, prop)
            self._property_scores.put(key, score)
            if self._stats is not None:
                self._stats.inc("mapping.property_scores.misses")
        elif self._stats is not None:
            self._stats.inc("mapping.property_scores.hits")
        return score

    def _property_similarity_uncached(self, word: str, prop: PropertyDef) -> float:
        best = self._similarity(word, prop.name)
        for label_word in prop.display_label().split():
            best = max(best, self._similarity(word, label_word))
        return best
