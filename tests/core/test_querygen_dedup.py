"""Query-generation dedup and branch-and-bound pruning.

Two properties are asserted here:

* predicate candidates that resolve to the same IRI collapse to a single
  candidate query (keeping the best-ranked copy), and
* pruned enumeration (``enable_early_termination=True``) produces output
  identical to the exhaustive Cartesian product, including score ties,
  across a seeded fuzz of synthetic candidate sets.
"""

import random

import pytest

from repro.core.config import PipelineConfig
from repro.core.mapping import CandidateTriple, PredicateCandidate
from repro.core.querygen import QueryGenerator
from repro.core.triples import Slot, SlotKind, TriplePattern
from repro.kb.ontology import PropertyKind
from repro.obs.metrics import MetricsRegistry
from repro.rdf.terms import IRI, Variable

VAR = Variable("x")
DBO = "http://dbpedia.org/ontology/"
DBR = "http://dbpedia.org/resource/"


def pattern() -> TriplePattern:
    return TriplePattern(
        subject=Slot.variable(),
        predicate=Slot(SlotKind.TEXT, "written"),
        object=Slot(SlotKind.ENTITY, "Orhan Pamuk"),
        is_main=True,
    )


def candidate(predicates, obj_name="Orhan_Pamuk") -> CandidateTriple:
    return CandidateTriple(
        pattern=pattern(),
        subjects=[VAR],
        predicates=list(predicates),
        objects=[IRI(DBR + obj_name)],
    )


def pred(local, weight, source="similarity", kind=PropertyKind.OBJECT):
    return PredicateCandidate(
        iri=IRI(DBO + local), kind=kind, weight=weight, source=source
    )


class TestDeduplication:
    def test_same_iri_from_two_sources_collapses(self):
        """A PATTY hit and a string-similarity hit for the same property
        used to emit the same SPARQL twice; now one query survives."""
        generator = QueryGenerator()
        queries = generator.generate(
            [candidate([pred("author", 1.0, "pattern"),
                        pred("author", 0.82, "similarity")])]
        )
        sparql = [q.to_sparql() for q in queries]
        assert len(sparql) == len(set(sparql))
        # Both orientations of dbo:author remain, each exactly once.
        assert len(queries) == 2
        # The surviving copy carries the best-ranked evidence.
        assert all(q.score == 1.0 for q in queries)
        assert all(q.sources == ("pattern",) for q in queries)

    def test_duplicate_counter_increments(self):
        stats = MetricsRegistry()
        generator = QueryGenerator(stats=stats)
        generator.generate(
            [candidate([pred("author", 1.0, "pattern"),
                        pred("author", 0.82, "similarity")])]
        )
        assert stats.counter("querygen.duplicates_collapsed") == 2

    def test_distinct_iris_not_collapsed(self):
        generator = QueryGenerator()
        queries = generator.generate(
            [candidate([pred("author", 1.0), pred("writer", 0.9)])]
        )
        # Two IRIs x two orientations.
        assert len(queries) == 4

    def test_equal_scores_keep_product_order(self):
        """When duplicates tie on score, the earliest product-order copy
        wins, matching what a stable sort over the full product executes."""
        generator = QueryGenerator()
        queries = generator.generate(
            [candidate([pred("author", 0.9, "pattern"),
                        pred("author", 0.9, "wordnet")])]
        )
        assert all(q.sources == ("pattern",) for q in queries)


def fuzz_candidates(rng: random.Random) -> list[CandidateTriple]:
    """A random multi-pattern candidate set with deliberate IRI clashes
    and score ties so dedup and tie-breaking both get exercised."""
    locals_ = ["author", "writer", "creator", "starring", "director"]
    weights = [1.0, 0.9, 0.9, 0.82, 0.75, 0.5]
    patterns = []
    for _ in range(rng.randint(1, 3)):
        preds = [
            pred(rng.choice(locals_), rng.choice(weights),
                 rng.choice(["pattern", "similarity", "wordnet"]))
            for _ in range(rng.randint(1, 5))
        ]
        patterns.append(candidate(preds, obj_name=f"E{rng.randint(0, 2)}"))
    return patterns


def normalise(queries):
    return [(q.to_sparql(), q.score, q.sources) for q in queries]


class TestPrunedMatchesExhaustive:
    @pytest.mark.parametrize("seed", range(30))
    def test_fuzzed_equivalence(self, seed):
        mapped = fuzz_candidates(random.Random(seed))
        pruned = QueryGenerator(PipelineConfig())
        full = QueryGenerator(PipelineConfig().without_perf_caches())
        assert normalise(pruned.generate(mapped)) == normalise(
            full.generate(mapped)
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_equivalence_under_tight_limit(self, seed):
        """A small max_queries forces real pruning; output must still match
        the exhaustive top-k, ties included."""
        mapped = fuzz_candidates(random.Random(1000 + seed))
        config = PipelineConfig()._replace(max_queries=3)
        pruned = QueryGenerator(config)
        full = QueryGenerator(config._replace(enable_early_termination=False))
        assert normalise(pruned.generate(mapped)) == normalise(
            full.generate(mapped)
        )

    def test_pruning_actually_skips_work(self):
        """On a large skewed product the pruned enumerator must visit
        strictly fewer combinations than the exhaustive one."""
        rng = random.Random(7)
        mapped = [
            candidate(
                [pred(f"p{axis}_{i}", 1.0 if i == 0 else 0.1 + 0.01 * i)
                 for i in range(8)],
                obj_name=f"E{axis}",
            )
            for axis in range(3)
        ]
        config = PipelineConfig()._replace(max_queries=4)

        full_stats = MetricsRegistry()
        QueryGenerator(
            config._replace(enable_early_termination=False), stats=full_stats
        ).generate(mapped)
        pruned_stats = MetricsRegistry()
        pruned_queries = QueryGenerator(config, stats=pruned_stats).generate(mapped)
        full_queries = QueryGenerator(
            config._replace(enable_early_termination=False)
        ).generate(mapped)

        assert normalise(pruned_queries) == normalise(full_queries)
        assert pruned_stats.counter("querygen.subtrees_pruned") > 0
        assert (
            pruned_stats.counter("querygen.combos_enumerated")
            < full_stats.counter("querygen.combos_enumerated")
        )

    def test_empty_mapping_yields_no_queries(self):
        assert QueryGenerator().generate([]) == []
