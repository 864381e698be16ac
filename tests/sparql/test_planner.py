"""Tests for the BGP join planner."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf import DBO, DBR, Graph, IRI, RDF, Triple, Variable
from repro.sparql.planner import plan_bgp


def order(graph, triples, bound):
    """The planned triples, without their estimates."""
    return [triple for triple, __ in plan_bgp(graph, triples, bound)]


def build_graph(num_books=50):
    g = Graph()
    for i in range(num_books):
        book = DBR[f"Book{i}"]
        g.add(Triple(book, RDF.type, DBO.Book))
        g.add(Triple(book, DBO.author, DBR[f"Writer{i % 5}"]))
    for i in range(5):
        g.add(Triple(DBR[f"Writer{i}"], RDF.type, DBO.Writer))
    g.add(Triple(DBR.Writer0, DBO.birthPlace, DBR.Istanbul))
    return g


class TestEstimates:
    def test_ground_pattern_exact(self):
        g = build_graph()
        pattern = Triple(DBR.Book0, RDF.type, DBO.Book)
        assert plan_bgp(g, (pattern,), set()) == [(pattern, 1.0)]

    def test_predicate_object_exact(self):
        g = build_graph()
        pattern = Triple(Variable("x"), RDF.type, DBO.Book)
        assert plan_bgp(g, (pattern,), set()) == [(pattern, 50.0)]

    def test_bound_variable_discounts(self):
        g = build_graph()
        pattern = Triple(Variable("x"), DBO.author, Variable("a"))
        [(__, open_estimate)] = plan_bgp(g, (pattern,), set())
        [(__, bound_estimate)] = plan_bgp(g, (pattern,), {Variable("a")})
        assert bound_estimate < open_estimate


class TestPlanOrder:
    def test_most_selective_first(self):
        g = build_graph()
        triples = (
            Triple(Variable("x"), RDF.type, DBO.Book),          # 50 matches
            Triple(Variable("w"), DBO.birthPlace, DBR.Istanbul),  # 1 match
            Triple(Variable("x"), DBO.author, Variable("w")),   # 50 matches
        )
        ordered = order(g, triples, set())
        assert ordered[0].predicate == DBO.birthPlace

    def test_connected_patterns_preferred_over_cartesian(self):
        g = build_graph()
        triples = (
            Triple(Variable("w"), DBO.birthPlace, DBR.Istanbul),  # 1 match, binds w
            Triple(Variable("x"), RDF.type, DBO.Book),            # disconnected, 50
            Triple(Variable("x"), DBO.author, Variable("w")),     # connected to w
        )
        ordered = order(g, triples, set())
        # After the birthPlace seed, the join on ?w must come before the
        # disconnected type scan.
        assert ordered[1].predicate == DBO.author

    def test_plan_preserves_multiset(self):
        g = build_graph()
        triples = (
            Triple(Variable("x"), RDF.type, DBO.Book),
            Triple(Variable("x"), DBO.author, Variable("w")),
        )
        assert sorted(map(str, order(g, triples, set()))) == sorted(map(str, triples))

    def test_initially_bound_variables_count_as_bound(self):
        g = build_graph()
        triples = (
            Triple(Variable("x"), DBO.author, Variable("w")),
            Triple(Variable("x"), RDF.type, DBO.Book),
        )
        ordered = order(g, triples, {Variable("w")})
        # With ?w pre-bound the author join becomes cheap and goes first.
        assert ordered[0].predicate == DBO.author

    def test_ties_go_to_the_earlier_pattern(self):
        g = build_graph()
        first = Triple(Variable("x"), DBO.author, Variable("w"))
        second = Triple(Variable("y"), DBO.author, Variable("w"))
        assert order(g, (first, second), set()) == [first, second]
        assert order(g, (second, first), set()) == [second, first]

    def test_empty_bgp(self):
        g = build_graph()
        assert plan_bgp(g, (), set()) == []

    @settings(max_examples=25)
    @given(st.permutations(["t0", "t1", "t2", "t3"]))
    def test_plan_invariant_to_input_order(self, names):
        # The greedy plan depends on statistics, not on the textual order of
        # patterns (ties break by position, but the chosen first pattern for
        # this workload is unique).
        g = build_graph()
        catalogue = {
            "t0": Triple(Variable("x"), RDF.type, DBO.Book),
            "t1": Triple(Variable("x"), DBO.author, Variable("w")),
            "t2": Triple(Variable("w"), DBO.birthPlace, DBR.Istanbul),
            "t3": Triple(Variable("w"), RDF.type, DBO.Writer),
        }
        triples = tuple(catalogue[name] for name in names)
        ordered = order(g, triples, set())
        assert ordered[0] == catalogue["t2"]
