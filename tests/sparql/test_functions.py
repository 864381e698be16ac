"""Unit tests for filter-expression evaluation and ordering keys."""

import pytest

from repro.rdf import IRI, Literal, Variable, XSD
from repro.rdf.order import LITERAL_KIND, order_key, order_ranks
from repro.sparql.ast import (
    BooleanOp,
    Comparison,
    FunctionCall,
    Not,
    TermExpr,
)
from repro.sparql.errors import SparqlTypeError
from repro.sparql.functions import effective_boolean, evaluate


def var(name):
    return TermExpr(Variable(name))


def lit(value, datatype=None, language=None):
    return TermExpr(Literal(value, datatype=datatype, language=language))


def num(value):
    text = repr(value) if isinstance(value, float) else str(value)
    dt = XSD.double.value if isinstance(value, float) else XSD.integer.value
    return lit(text, datatype=dt)


class TestEffectiveBoolean:
    def test_bool_passthrough(self):
        assert effective_boolean(True) is True

    def test_nonempty_string_literal(self):
        assert effective_boolean(Literal("x")) is True

    def test_empty_string_literal(self):
        assert effective_boolean(Literal("")) is False

    def test_zero_is_false(self):
        assert effective_boolean(Literal("0", datatype=XSD.integer.value)) is False

    def test_boolean_literal(self):
        assert effective_boolean(Literal("true", datatype=XSD.boolean.value)) is True


class TestEvaluate:
    def test_unbound_variable_raises(self):
        with pytest.raises(SparqlTypeError, match="unbound"):
            evaluate(var("x"), {})

    def test_bound_variable_resolves(self):
        bindings = {Variable("x"): IRI("http://e/a")}
        assert evaluate(var("x"), bindings) == IRI("http://e/a")

    def test_numeric_promotion_int_vs_double(self):
        expr = Comparison("=", num(2), num(2.0))
        assert evaluate(expr, {}) is True

    def test_string_vs_number_equality_is_false(self):
        expr = Comparison("=", lit("2"), num(2))
        assert evaluate(expr, {}) is False

    def test_string_vs_number_ordering_is_error(self):
        expr = Comparison("<", lit("2"), num(3))
        with pytest.raises(SparqlTypeError):
            evaluate(expr, {})

    def test_iri_ordering_is_error(self):
        expr = Comparison("<", TermExpr(IRI("http://e/a")), num(1))
        with pytest.raises(SparqlTypeError):
            evaluate(expr, {})

    def test_date_comparison(self):
        expr = Comparison(
            "<",
            lit("1986-02-11", datatype=XSD.date.value),
            lit("2000-01-01", datatype=XSD.date.value),
        )
        assert evaluate(expr, {}) is True

    def test_gyear_vs_date(self):
        expr = Comparison(
            "<",
            lit("1952", datatype=XSD.gYear.value),
            lit("2000-01-01", datatype=XSD.date.value),
        )
        assert evaluate(expr, {}) is True

    @pytest.mark.parametrize("year", ["0", "-0044", "10000"])
    def test_gyear_no_date_can_hold_is_malformed(self, year):
        gyear = lit(year, datatype=XSD.gYear.value)
        for other in (lit("2000-01-01", datatype=XSD.date.value), num(3)):
            with pytest.raises(SparqlTypeError, match="malformed date"):
                evaluate(Comparison("<", gyear, other), {})
        assert order_key(gyear.term) == (LITERAL_KIND, year)

    @pytest.mark.parametrize("operator", ["<", "<=", ">", ">="])
    @pytest.mark.parametrize("flipped", [False, True])
    def test_boolean_vs_number_ordering_is_error(self, operator, flipped):
        # SPARQL 1.1 maps no operator from xsd:boolean to a number,
        # although a Python bool is an int.
        sides = [lit("true", datatype=XSD.boolean.value), num(0)]
        if flipped:
            sides.reverse()
        with pytest.raises(SparqlTypeError):
            evaluate(Comparison(operator, *sides), {})

    @pytest.mark.parametrize("value", [0, 1, 1.0])
    def test_boolean_vs_number_equality_is_false(self, value):
        true = lit("true", datatype=XSD.boolean.value)
        assert evaluate(Comparison("=", true, num(value)), {}) is False
        assert evaluate(Comparison("!=", num(value), true), {}) is True

    def test_booleans_order_among_themselves(self):
        true = lit("true", datatype=XSD.boolean.value)
        false = lit("false", datatype=XSD.boolean.value)
        assert evaluate(Comparison(">", true, false), {}) is True
        assert evaluate(Comparison("=", true, true), {}) is True

    def test_and_short_circuit_absorbs_error(self):
        # false && error -> false (three-valued logic)
        expr = BooleanOp("&&", Comparison("=", num(1), num(2)), var("missing"))
        assert evaluate(expr, {}) is False

    def test_or_short_circuit_absorbs_error(self):
        expr = BooleanOp("||", Comparison("=", num(1), num(1)), var("missing"))
        assert evaluate(expr, {}) is True

    def test_and_error_propagates_when_undecided(self):
        expr = BooleanOp("&&", Comparison("=", num(1), num(1)), var("missing"))
        with pytest.raises(SparqlTypeError):
            evaluate(expr, {})

    def test_not(self):
        assert evaluate(Not(Comparison("=", num(1), num(2))), {}) is True


class TestBuiltins:
    def test_bound_true_false(self):
        bound = FunctionCall("BOUND", (var("x"),))
        assert evaluate(bound, {Variable("x"): Literal("v")}) is True
        assert evaluate(bound, {}) is False

    def test_bound_requires_variable(self):
        with pytest.raises(SparqlTypeError):
            evaluate(FunctionCall("BOUND", (lit("x"),)), {})

    def test_regex_basic(self):
        expr = FunctionCall("REGEX", (lit("Istanbul"), lit("^Ist")))
        assert evaluate(expr, {}) is True

    def test_regex_flags(self):
        expr = FunctionCall("REGEX", (lit("Istanbul"), lit("^ist"), lit("i")))
        assert evaluate(expr, {}) is True

    def test_regex_bad_pattern(self):
        expr = FunctionCall("REGEX", (lit("x"), lit("(")))
        with pytest.raises(SparqlTypeError):
            evaluate(expr, {})

    def test_str_of_iri(self):
        expr = FunctionCall("STR", (TermExpr(IRI("http://e/a")),))
        assert evaluate(expr, {}) == Literal("http://e/a")

    def test_lang_of_tagged(self):
        expr = FunctionCall("LANG", (lit("Berlin", language="de"),))
        assert evaluate(expr, {}) == Literal("de")

    def test_lang_of_plain(self):
        expr = FunctionCall("LANG", (lit("Berlin"),))
        assert evaluate(expr, {}) == Literal("")

    def test_langmatches_wildcard(self):
        expr = FunctionCall("LANGMATCHES", (lit("en"), lit("*")))
        assert evaluate(expr, {}) is True

    def test_langmatches_region(self):
        expr = FunctionCall("LANGMATCHES", (lit("en-US"), lit("en")))
        assert evaluate(expr, {}) is True

    def test_datatype_default_string(self):
        expr = FunctionCall("DATATYPE", (lit("x"),))
        assert evaluate(expr, {}).value.endswith("#string")

    def test_contains_strstarts_strends(self):
        assert evaluate(FunctionCall("CONTAINS", (lit("abc"), lit("b"))), {}) is True
        assert evaluate(FunctionCall("STRSTARTS", (lit("abc"), lit("a"))), {}) is True
        assert evaluate(FunctionCall("STRENDS", (lit("abc"), lit("c"))), {}) is True

    def test_lcase_ucase(self):
        assert evaluate(FunctionCall("LCASE", (lit("AbC"),)), {}) == Literal("abc")
        assert evaluate(FunctionCall("UCASE", (lit("AbC"),)), {}) == Literal("ABC")

    def test_is_iri_literal(self):
        assert evaluate(FunctionCall("ISIRI", (TermExpr(IRI("http://e/a")),)), {}) is True
        assert evaluate(FunctionCall("ISLITERAL", (lit("x"),)), {}) is True
        assert evaluate(FunctionCall("ISIRI", (lit("x"),)), {}) is False

    def test_unknown_function(self):
        with pytest.raises(SparqlTypeError):
            evaluate(FunctionCall("FROBNICATE", ()), {})

    def test_wrong_arity(self):
        with pytest.raises(SparqlTypeError):
            evaluate(FunctionCall("STR", ()), {})


class TestOrderKey:
    def test_kind_ordering(self):
        unbound = order_key(None)
        iri = order_key(IRI("http://e/a"))
        literal = order_key(Literal("x"))
        assert unbound < iri < literal

    def test_numeric_literals_by_value(self):
        small = order_key(Literal("2", datatype=XSD.integer.value))
        large = order_key(Literal("10", datatype=XSD.integer.value))
        assert small < large

    def test_lexicographic_trap_avoided(self):
        # String "10" < "2" lexicographically; numeric order must win.
        small = order_key(Literal("2", datatype=XSD.integer.value))
        large = order_key(Literal("10.5", datatype=XSD.double.value))
        assert small < large

    def test_dates_by_value(self):
        early = order_key(Literal("1865-04-15", datatype=XSD.date.value))
        late = order_key(Literal("1986-02-11", datatype=XSD.date.value))
        assert early < late

    def test_nan_sorts_after_every_number_and_equal_to_nan(self):
        nan = order_key(Literal("NaN", datatype=XSD.double.value))
        assert nan == order_key(Literal("nan", datatype=XSD.float.value))
        assert order_key(Literal("INF", datatype=XSD.double.value)) < nan
        assert order_key(Literal("7", datatype=XSD.integer.value)) < nan
        assert nan < order_key(Literal("1865-04-15", datatype=XSD.date.value))


class TestOrderRanks:
    def test_equal_keys_share_a_dense_rank(self):
        values = [
            Literal("2", datatype=XSD.integer.value),
            Literal("NaN", datatype=XSD.double.value),
            Literal("1.0", datatype=XSD.double.value),
            None,
            Literal("1", datatype=XSD.integer.value),
            Literal("nan", datatype=XSD.double.value),
            IRI("http://e/a"),
        ]
        assert order_ranks(values) == [3, 4, 2, 0, 2, 4, 1]

    def test_ranks_sort_like_keys(self):
        values = [Literal(text) for text in ("b", "a", "c", "a")]
        ranks = order_ranks(values)
        by_rank = sorted(range(4), key=lambda i: (ranks[i], i))
        by_key = sorted(range(4), key=lambda i: (order_key(values[i]), i))
        assert by_rank == by_key
