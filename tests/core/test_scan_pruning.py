"""The pruned vocabulary scan must be invisible except in speed.

`_ScanIndex` buckets catalogue labels by (length, first character) and
rejects pairs whose LCS upper bound cannot reach the acceptance threshold.
All rejections must be sound: the pruned scan's candidate set is exactly
the full scan's, for every word — including words absent from the
vocabulary, single characters, and empty strings.
"""

import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PipelineConfig, TripleMapper
from repro.core.mapping import _ScanIndex
from repro.similarity.lcs import (
    char_profile,
    subsequence_similarity,
    subsequence_upper_bound,
)


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
    @settings(max_examples=300, deadline=None)
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
        properties = list(kb.ontology.properties())
        threshold = PipelineConfig().similarity_threshold
        index = _ScanIndex(properties)

        def full_scan(word):
            above = set()
            for prop in properties:
                best = subsequence_similarity(word, prop.name)
                for label_word in prop.display_label().split():
                    best = max(best, subsequence_similarity(word, label_word))
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
        for word in words:
            feasible = index.feasible_names(word, threshold)
            if feasible is None:
                continue
            assert full_scan(word) <= feasible, word

    def test_zero_threshold_disables_pruning(self, kb):
        index = _ScanIndex(list(kb.ontology.properties()))
        assert index.feasible_names("word", 0.0) is None
        assert index.feasible_names("", 0.7) is None


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
                    c for c in (
                        (prop, mapper._property_similarity(word, prop))
                        for prop in searchable
                    )
                    if c[1] >= threshold
                )
                assert tuple((c.iri, c.weight) for c in pruned) == tuple(
                    (prop.iri, score) for prop, score in full
                )

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
