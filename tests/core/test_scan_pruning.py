"""The pruned vocabulary scan must be invisible except in speed.

`LabelIndex` buckets catalogue labels by (length, first character) and
rejects pairs whose LCS upper bound cannot reach the acceptance threshold.
All rejections must be sound: the pruned scan's candidate set is exactly
the full scan's, for every word — including words absent from the
vocabulary, single characters, and empty strings.  The index the mappers
use is the ontology's own (`Ontology.label_index`), built once per
catalogue flavour and shared by every mapper over that ontology.
"""

import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PipelineConfig, QuestionAnsweringSystem, TripleMapper
from repro.kb import load_curated_kb
from repro.kb import ontology as ontology_module
from repro.kb.ontology import PropertyDef, PropertyKind, ValueType
from repro.rdf import DBO
from repro.similarity.lcs import (
    LabelIndex,
    char_profile,
    subsequence_similarity,
    subsequence_upper_bound,
)


def label_words(prop):
    """The words a scan scores against: name, then decamelised label."""
    return (prop.name, *prop.display_label().split())


@pytest.fixture(scope="module")
def mapper(kb, pattern_store, similar_pairs, adjective_map):
    return TripleMapper(kb, pattern_store, similar_pairs, adjective_map)


@pytest.fixture(scope="module")
def unpruned_mapper(kb, pattern_store, similar_pairs, adjective_map):
    # A non-default metric name disables pruning (the bound is
    # LCS-specific), keeping the seed's full scan as oracle.
    config = PipelineConfig(similarity="jaccard")
    return TripleMapper(kb, pattern_store, similar_pairs, adjective_map, config)


class TestUpperBound:
    # 300 examples in tier-1, the profile's budget when that is larger
    # (the nightly lane's 1000).
    @settings(max_examples=max(300, settings().max_examples), deadline=None)
    @given(st.text(alphabet=string.ascii_letters + " ", max_size=16),
           st.text(alphabet=string.ascii_letters + " ", max_size=16))
    def test_bound_dominates_similarity(self, a, b):
        na, nb = a.strip().lower(), b.strip().lower()
        bound = subsequence_upper_bound(
            char_profile(a), len(na), char_profile(b), len(nb)
        )
        assert bound >= subsequence_similarity(a, b) - 1e-12


class TestScanIndexSoundness:
    def test_pruned_scan_equals_full_scan(self, kb):
        threshold = PipelineConfig().similarity_threshold

        def full_scan(word, properties):
            above = set()
            for prop in properties:
                best = max(
                    subsequence_similarity(word, label)
                    for label in label_words(prop)
                )
                if best >= threshold:
                    above.add(prop.name)
            return above

        rng = random.Random(11)
        words = ["write", "written", "mayor", "population", "die", "author",
                 "height", "wife", "born", "a", "zz"]
        words += [
            "".join(rng.choice(string.ascii_lowercase)
                    for _ in range(rng.randint(1, 14)))
            for _ in range(120)
        ]
        for object_only in (False, True):
            properties = list(
                kb.ontology.object_properties() if object_only
                else kb.ontology.properties()
            )
            index = kb.ontology.label_index(object_only)
            for word in words:
                feasible = index.feasible_names(word, threshold)
                if feasible is None:
                    continue
                assert full_scan(word, properties) <= feasible, word

    def test_zero_threshold_disables_pruning(self, kb):
        index = kb.ontology.label_index()
        assert index.feasible_names("word", 0.0) is None
        assert index.feasible_names("", 0.7) is None


class TestSharedLabelIndex:
    def test_index_words_are_name_and_label_words(self, kb):
        for object_only, properties in (
            (False, kb.ontology.properties()),
            (True, kb.ontology.object_properties()),
        ):
            index = kb.ontology.label_index(object_only)
            for prop in properties:
                assert index.words(prop.name) == label_words(prop)

    def test_systems_over_one_kb_share_one_index(
        self, pattern_store, similar_pairs, adjective_map, monkeypatch
    ):
        fresh_kb = load_curated_kb()
        builds = []
        decamels = []

        class CountingIndex(LabelIndex):
            def __init__(self, entries):
                builds.append(self)
                super().__init__(entries)

        def counting_decamel(name, original=ontology_module._decamel):
            decamels.append(name)
            return original(name)

        monkeypatch.setattr(ontology_module, "LabelIndex", CountingIndex)

        def system():
            return QuestionAnsweringSystem(
                fresh_kb, pattern_store, similar_pairs, adjective_map
            )

        question = "Which book is written by Orhan Pamuk?"
        first = system().answer(question)
        assert first.answered
        assert 1 <= len(builds) <= 2  # at most one per catalogue flavour
        built = list(builds)
        monkeypatch.setattr(ontology_module, "_decamel", counting_decamel)
        second = system().answer(question)
        assert second.answers == first.answers
        assert builds == built, "the second system rebuilt the label index"
        assert decamels == [], "a question decamelised property names"

    def test_add_property_drops_the_index(
        self, pattern_store, similar_pairs, adjective_map
    ):
        fresh_kb = load_curated_kb()
        ontology = fresh_kb.ontology
        before = ontology.label_index(False)
        before_objects = ontology.label_index(True)
        ontology.add_property(
            PropertyDef("zorblaxCount", PropertyKind.DATA, ValueType.NUMERIC)
        )
        assert ontology.label_index(False) is not before
        assert ontology.label_index(True) is not before_objects
        assert ontology.label_index(False).words("zorblaxCount") == (
            "zorblaxCount", "zorblax", "count",
        )
        mapper = TripleMapper(
            fresh_kb, pattern_store, similar_pairs, adjective_map
        )
        found = mapper._similarity_candidates("zorblax", False)
        assert DBO["zorblaxCount"] in {candidate.iri for candidate in found}


class TestMapperIntegration:
    def test_pruned_candidates_match_full_scan(self, mapper):
        for word in ("write", "written", "mayor", "height", "die", "play"):
            for is_verb in (False, True):
                pruned = mapper._similarity_candidates(word, is_verb)
                # Oracle: bypass the index by scanning every property.
                threshold = mapper._config.similarity_threshold
                searchable = list(
                    mapper._kb.ontology.object_properties()
                    if is_verb else mapper._kb.ontology.properties()
                )
                full = tuple(
                    (prop.iri, score)
                    for prop in searchable
                    if (score := max(
                        mapper._similarity(word, label)
                        for label in label_words(prop)
                    )) >= threshold
                )
                assert tuple((c.iri, c.weight) for c in pruned) == full

    def test_pruning_counter_increments(self, kb, pattern_store, similar_pairs,
                                        adjective_map):
        from repro.obs.metrics import MetricsRegistry

        stats = MetricsRegistry()
        fresh = TripleMapper(
            kb, pattern_store, similar_pairs, adjective_map, stats=stats
        )
        fresh._similarity_candidates("population", False)
        assert stats.counter("mapping.scan_pruned") > 0

    def test_non_lcs_metric_keeps_full_scan(self, unpruned_mapper):
        assert not unpruned_mapper._prune_scans
        # Full scan still works and uses the configured metric.
        unpruned_mapper._similarity_candidates("write", True)
