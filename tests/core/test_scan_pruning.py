"""The packed vocabulary scan must equal the dynamic programme exactly.

`LabelIndex.scores` scores a question word against every label word of
the catalogue in one bit-parallel pass.  For every word -- including the
empty word, single characters, non-ASCII letters and words longer than
every label -- and every threshold, its `{name: score}` must equal the
reference: each property's best `subsequence_similarity` (the DP
`lcs_length`) over its label words, kept when it reaches the threshold,
in catalogue order.  The index the mappers use is the ontology's own
(`Ontology.label_index`), built once per catalogue flavour and shared by
every mapper over that ontology.
"""

import math
import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PipelineConfig, QuestionAnsweringSystem, TripleMapper
from repro.kb import load_curated_kb, load_synthetic_kb
from repro.kb import ontology as ontology_module
from repro.kb.ontology import Ontology, PropertyDef, PropertyKind, ValueType
from repro.obs.metrics import MetricsRegistry
from repro.rdf import DBO
from repro.similarity.lcs import LabelIndex, subsequence_similarity

THRESHOLDS = (0.0, 0.5, 0.6, 0.7, 0.75, 0.8, 0.9, 1.0)


def label_words(prop):
    """The words a scan scores against: name, then decamelised label."""
    return (prop.name, *prop.display_label().split())


def catalogue(ontology, object_only):
    return list(
        ontology.object_properties() if object_only else ontology.properties()
    )


def assert_packed_equals_dp(ontology, object_only, word, thresholds):
    """The reference scan: every property's best DP score over its label
    words, kept when it reaches the threshold, in catalogue order."""
    index = ontology.label_index(object_only)
    best = {
        prop.name: max(
            subsequence_similarity(word, label) for label in index.words(prop.name)
        )
        for prop in catalogue(ontology, object_only)
    }
    for threshold in thresholds:
        expected = {name: score for name, score in best.items() if score >= threshold}
        packed = index.scores(word, threshold)
        assert packed == expected, (word, threshold)
        assert list(packed) == list(expected), "not in catalogue order"


@pytest.fixture(scope="module")
def ontologies(kb):
    return {"curated": kb.ontology, "synthetic": load_synthetic_kb().ontology}


@pytest.fixture(scope="module")
def mapper(kb, pattern_store, similar_pairs, adjective_map):
    return TripleMapper(kb, pattern_store, similar_pairs, adjective_map)


@pytest.fixture(scope="module")
def jaccard_mapper(kb, pattern_store, similar_pairs, adjective_map):
    # A metric other than LCS scores label by label.
    config = PipelineConfig(similarity="jaccard")
    return TripleMapper(kb, pattern_store, similar_pairs, adjective_map, config)


class TestScanIndexSoundness:
    # 300 examples in tier-1, the profile's budget when that is larger
    # (the nightly lane's 1000).
    @settings(max_examples=max(300, settings().max_examples), deadline=None)
    @given(
        word=st.text(
            alphabet=string.ascii_letters + string.digits + " -éßñøİ",
            max_size=40,
        ),
        threshold=st.floats(0.5, 0.9),
        object_only=st.booleans(),
        which=st.sampled_from(["curated", "synthetic"]),
    )
    def test_packed_scores_equal_dp(
        self, ontologies, word, threshold, object_only, which
    ):
        assert_packed_equals_dp(
            ontologies[which], object_only, word, THRESHOLDS + (threshold,)
        )

    def test_pruned_scan_equals_full_scan(self, kb):
        rng = random.Random(11)
        words = ["write", "written", "mayor", "population", "die", "author",
                 "height", "wife", "born", "a", "zz", "", "x" * 40]
        words += [
            "".join(rng.choice(string.ascii_lowercase)
                    for _ in range(rng.randint(1, 14)))
            for _ in range(120)
        ]
        for object_only in (False, True):
            for word in words:
                assert_packed_equals_dp(kb.ontology, object_only, word, THRESHOLDS)

    @pytest.mark.parametrize("length", [39, 200])
    def test_long_label_widens_lanes_and_scores_exactly(self, length):
        # 39 characters widen the lanes to 64 bits; 200 to 256 bits, whose
        # counts no longer fit a byte.
        ontology = load_curated_kb().ontology
        name = ("numberOfCharactersInTheLongestLabelWord" * 6)[:length]
        ontology.add_property(
            PropertyDef(name, PropertyKind.OBJECT, ValueType.ENTITY)
        )
        assert len(ontology.label_index().words(name)[0]) >= 32
        for object_only in (False, True):
            for word in (name, name.lower() + "s", "numberofcharacters",
                         "characters", "", "z" * 70):
                assert_packed_equals_dp(ontology, object_only, word, THRESHOLDS)
        assert ontology.label_index(True).scores(name, 0.7)[name] == 1.0

    def test_blank_name_scores_zero_at_threshold_zero(self):
        ontology = Ontology()
        for name in ("height", " "):
            ontology.add_property(
                PropertyDef(name, PropertyKind.DATA, ValueType.NUMERIC)
            )
        for word in ("height", "", "weight"):
            assert_packed_equals_dp(ontology, False, word, THRESHOLDS)
        assert ontology.label_index().scores("weight", 0.0) == {
            "height": 5 / 6, " ": 0.0,
        }

    def test_thresholds_on_score_boundaries(self):
        # At a threshold k / n the float product threshold * n can round
        # to either side of k: a score equal to the threshold must pass,
        # and one a float step below it must not.  Every score reaches a
        # negative threshold, and none one above 1.
        ontology = Ontology()
        for length in range(1, 41):
            ontology.add_property(
                PropertyDef("a" * length, PropertyKind.DATA, ValueType.NUMERIC)
            )
        quotients = sorted({k / n for n in range(1, 41) for k in range(n + 1)})
        thresholds = quotients + [math.nextafter(t, 2.0) for t in quotients]
        thresholds += [-1.0, 1.5]
        for length in range(41):
            assert_packed_equals_dp(ontology, False, "a" * length, thresholds)

    def test_no_object_properties_scores_nothing(self):
        ontology = Ontology()
        ontology.add_property(
            PropertyDef("height", PropertyKind.DATA, ValueType.NUMERIC)
        )
        for threshold in THRESHOLDS:
            assert ontology.label_index(True).scores("height", threshold) == {}
            assert ontology.label_index(True).scores("", threshold) == {}
        assert ontology.label_index(False).scores("height", 0.7) == {
            "height": 1.0
        }


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

    def test_cold_lcs_scan_calls_the_metric_zero_times(
        self, kb, pattern_store, similar_pairs, adjective_map
    ):
        stats = MetricsRegistry()
        fresh = TripleMapper(
            kb, pattern_store, similar_pairs, adjective_map, stats=stats
        )
        for word in ("population", "written", "mayor"):
            for is_verb in (False, True):
                fresh._similarity_candidates(word, is_verb)
        assert stats.counter("mapping.scan_cache.misses") == 6
        assert stats.counter("similarity.memo.hits") == 0
        assert stats.counter("similarity.memo.misses") == 0

    def test_non_lcs_metric_keeps_full_scan(self, jaccard_mapper):
        threshold = jaccard_mapper._config.similarity_threshold
        for word in ("write", "written", "mayor", "height", "population"):
            for is_verb in (False, True):
                expected = tuple(
                    (prop.iri, score)
                    for prop in catalogue(jaccard_mapper._kb.ontology, is_verb)
                    if (score := max(
                        jaccard_mapper._similarity(word, label)
                        for label in label_words(prop)
                    )) >= threshold
                )
                found = jaccard_mapper._similarity_candidates(word, is_verb)
                assert tuple((c.iri, c.weight) for c in found) == expected
