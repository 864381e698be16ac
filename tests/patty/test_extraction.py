"""Tests for distant-supervision pattern extraction."""

import pytest

from repro.kb import load_curated_kb
from repro.patty import CorpusSentence, PatternExtractor
from repro.rdf import DBO, DBR, Triple


@pytest.fixture(scope="module")
def kb():
    return load_curated_kb()


@pytest.fixture(scope="module")
def extractor(kb):
    return PatternExtractor(kb)


def sentence(text):
    return CorpusSentence(text=text, subject="", object="", relation="")


class TestExtraction:
    def test_simple_pattern(self, extractor):
        occurrences = extractor.extract([
            sentence("Orhan Pamuk was born in Istanbul"),
        ])
        assert any(
            o.pattern == "be bear in" and o.relation == "birthPlace"
            for o in occurrences
        )

    def test_lemmatised_pattern(self, extractor):
        occurrences = extractor.extract([
            sentence("Frank Herbert died in Madison"),
        ])
        patterns = {o.pattern for o in occurrences}
        assert "die in" in patterns

    def test_distant_supervision_is_kb_driven(self, extractor):
        # Shakespeare was born AND died in Stratford-upon-Avon: a "born in"
        # sentence is attributed to both relations (the PATTY noise path).
        occurrences = extractor.extract([
            sentence("William Shakespeare was born in Stratford-upon-Avon"),
        ])
        relations = {o.relation for o in occurrences}
        assert "birthPlace" in relations
        assert "deathPlace" in relations

    def test_reverse_direction_attributed(self, extractor):
        occurrences = extractor.extract([
            sentence("Ankara is the capital of Turkey"),
        ])
        assert any(o.relation == "capital" for o in occurrences)

    def test_unknown_entities_skipped(self, extractor):
        assert extractor.extract([
            sentence("Zorblax was born in Qwixotia"),
        ]) == []

    def test_single_entity_skipped(self, extractor):
        assert extractor.extract([
            sentence("Orhan Pamuk writes excellent prose"),
        ]) == []

    def test_unrelated_pair_yields_nothing(self, extractor):
        assert extractor.extract([
            sentence("Orhan Pamuk visited Berlin"),
        ]) == []

    def test_overlong_pattern_discarded(self, extractor):
        occurrences = extractor.extract([
            sentence(
                "Orhan Pamuk spent many long and productive working years "
                "writing in Istanbul"
            ),
        ])
        assert occurrences == []

    def test_sees_triples_added_between_calls(self):
        # The sentence and entity-pair memos live for one extract() call.
        kb = load_curated_kb()
        extractor = PatternExtractor(kb)
        text = [sentence("Orhan Pamuk visited Berlin")]
        assert extractor.extract(text) == []
        kb.graph.add(Triple(DBR.Orhan_Pamuk, DBO.residence, DBR.Berlin))
        assert [o.relation for o in extractor.extract(text)] == ["residence"]

    def test_type_and_label_predicates_never_attributed(self, extractor):
        occurrences = extractor.extract([
            sentence("Orhan Pamuk was born in Istanbul"),
        ])
        assert all(o.relation not in ("type", "label") for o in occurrences)


class TestAggregation:
    def test_aggregate_counts(self, extractor):
        occurrences = extractor.extract([
            sentence("Frank Herbert died in Madison"),
            sentence("Michael Jackson died in Los Angeles"),
            sentence("Frank Herbert died in Madison"),
        ])
        aggregates = extractor.aggregate(occurrences)
        death = aggregates[("die in", "deathPlace")]
        assert death.frequency == 3
        assert len(death.support) == 2  # two distinct pairs

    def test_aggregate_separates_relations(self, extractor):
        occurrences = extractor.extract([
            sentence("William Shakespeare was born in Stratford-upon-Avon"),
        ])
        aggregates = extractor.aggregate(occurrences)
        assert ("be bear in", "birthPlace") in aggregates
        assert ("be bear in", "deathPlace") in aggregates
