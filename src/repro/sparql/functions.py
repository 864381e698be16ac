"""FILTER expression evaluation.

Implements the SPARQL operator semantics the engine supports: effective
boolean value, value comparisons with numeric/date promotion, and the
builtin function library.  Type errors raise :class:`SparqlTypeError`, which
the executor converts into "the solution fails the filter" per the spec.
"""

from __future__ import annotations

import datetime as dt
import re
from typing import Any, Mapping

from repro.rdf.datatypes import (
    XSD_BOOLEAN,
    is_date_literal,
    is_numeric_literal,
    literal_value,
)
from repro.rdf.terms import BNode, IRI, Literal, Term, Variable
from repro.sparql.ast import (
    BooleanOp,
    Comparison,
    Expression,
    FunctionCall,
    Not,
    TermExpr,
)
from repro.sparql.errors import SparqlTypeError

Bindings = Mapping[Variable, Term]


def evaluate(expression: Expression, bindings: Bindings) -> Any:
    """Evaluate an expression to a Term or Python value.

    Unbound variables raise :class:`SparqlTypeError` (except inside
    ``BOUND``, which the function evaluator handles itself).
    """
    if isinstance(expression, TermExpr):
        term = expression.term
        if isinstance(term, Variable):
            try:
                return bindings[term]
            except KeyError:
                raise SparqlTypeError(f"unbound variable ?{term.name}") from None
        return term
    if isinstance(expression, Comparison):
        return _compare(expression.operator, expression.left, expression.right, bindings)
    if isinstance(expression, BooleanOp):
        return _boolean_op(expression, bindings)
    if isinstance(expression, Not):
        return not effective_boolean(evaluate(expression.operand, bindings))
    if isinstance(expression, FunctionCall):
        return _call(expression, bindings)
    raise SparqlTypeError(f"cannot evaluate {type(expression).__name__}")


def effective_boolean(value: Any) -> bool:
    """SPARQL effective boolean value (EBV)."""
    if isinstance(value, bool):
        return value
    if isinstance(value, Literal):
        native = literal_value(value)
        if isinstance(native, bool):
            return native
        if isinstance(native, (int, float)):
            return native != 0
        if isinstance(native, str):
            return len(native) > 0
        raise SparqlTypeError(f"no boolean value for literal {value.n3()}")
    if isinstance(value, (int, float)):
        return value != 0
    if isinstance(value, str):
        return len(value) > 0
    raise SparqlTypeError(f"no effective boolean value for {value!r}")


def _boolean_op(expression: BooleanOp, bindings: Bindings) -> bool:
    # SPARQL || and && have three-valued logic: an error on one side can be
    # absorbed when the other side decides the result.
    def side(expr: Expression) -> bool | None:
        try:
            return effective_boolean(evaluate(expr, bindings))
        except SparqlTypeError:
            return None

    left = side(expression.left)
    right = side(expression.right)
    if expression.operator == "&&":
        if left is False or right is False:
            return False
        if left is True and right is True:
            return True
        raise SparqlTypeError("type error in &&")
    if left is True or right is True:
        return True
    if left is False and right is False:
        return False
    raise SparqlTypeError("type error in ||")


def _comparable(term: Any) -> Any:
    """Map a term to a Python value usable with comparison operators."""
    if isinstance(term, Literal):
        if is_numeric_literal(term):
            value = literal_value(term)
            if isinstance(value, str):
                raise SparqlTypeError(f"malformed numeric literal {term.n3()}")
            return value
        if is_date_literal(term):
            value = literal_value(term)
            if isinstance(value, dt.datetime):
                return value.date()
            if isinstance(value, int) and dt.MINYEAR <= value <= dt.MAXYEAR:
                return dt.date(value, 1, 1)  # gYear
            if isinstance(value, dt.date):
                return value
            raise SparqlTypeError(f"malformed date literal {term.n3()}")
        if term.datatype == XSD_BOOLEAN:
            return bool(literal_value(term))
        return term.lexical
    if isinstance(term, (int, float, str, bool, dt.date)):
        return term
    raise SparqlTypeError(f"{term!r} is not comparable")


def _compare(operator: str, left: Expression, right: Expression, bindings: Bindings) -> bool:
    return compare_values(operator, evaluate(left, bindings), evaluate(right, bindings))


def compare_values(operator: str, lhs: Any, rhs: Any) -> bool:
    """SPARQL value comparison over already-evaluated operands.

    Shared between the AST-walking evaluator above and the compiled
    id-space expression closures (:mod:`repro.sparql.compiler`), which
    evaluate operands once and must not re-walk the expression tree.
    """
    # Term equality for IRIs and blank nodes.
    if isinstance(lhs, (IRI, BNode)) or isinstance(rhs, (IRI, BNode)):
        if operator == "=":
            return lhs == rhs
        if operator == "!=":
            return lhs != rhs
        raise SparqlTypeError("IRIs only support = and !=")
    lhs_value = _comparable(lhs)
    rhs_value = _comparable(rhs)
    # Strings, dates and booleans compare only within their own kind:
    # SPARQL maps no operator from xsd:boolean to a number, although a
    # Python bool is an int.
    if (
        isinstance(lhs_value, str) != isinstance(rhs_value, str)
        or isinstance(lhs_value, dt.date) != isinstance(rhs_value, dt.date)
        or isinstance(lhs_value, bool) != isinstance(rhs_value, bool)
    ):
        if operator == "=":
            return False
        if operator == "!=":
            return True
        raise SparqlTypeError(
            f"cannot order {type(lhs_value).__name__} against {type(rhs_value).__name__}"
        )
    if operator == "=":
        return lhs_value == rhs_value
    if operator == "!=":
        return lhs_value != rhs_value
    if operator == "<":
        return lhs_value < rhs_value
    if operator == "<=":
        return lhs_value <= rhs_value
    if operator == ">":
        return lhs_value > rhs_value
    if operator == ">=":
        return lhs_value >= rhs_value
    raise SparqlTypeError(f"unknown operator {operator!r}")


def _string_of(value: Any) -> str:
    if isinstance(value, Literal):
        return value.lexical
    if isinstance(value, IRI):
        return value.value
    if isinstance(value, str):
        return value
    raise SparqlTypeError(f"expected a string-valued argument, got {value!r}")


def _call(expression: FunctionCall, bindings: Bindings) -> Any:
    name = expression.name
    args = expression.arguments

    if name == "BOUND":
        if len(args) != 1:
            raise SparqlTypeError(f"BOUND expects 1 argument(s), got {len(args)}")
        operand = args[0]
        if not (isinstance(operand, TermExpr) and isinstance(operand.term, Variable)):
            raise SparqlTypeError("BOUND expects a variable")
        return operand.term in bindings

    return apply_builtin(name, tuple(evaluate(arg, bindings) for arg in args))


def apply_builtin(name: str, values: tuple[Any, ...]) -> Any:
    """Apply a builtin (other than ``BOUND``) to evaluated argument values.

    Shared between :func:`evaluate` and the compiled expression closures:
    the compiler evaluates arguments via per-slot closures and dispatches
    here, so builtin semantics live in exactly one place.  ``BOUND`` never
    reaches this function — it inspects bindings, not values, and both
    callers special-case it.
    """

    def arity(n: int) -> None:
        if len(values) != n:
            raise SparqlTypeError(f"{name} expects {n} argument(s), got {len(values)}")

    if name == "REGEX":
        if len(values) not in (2, 3):
            raise SparqlTypeError("REGEX expects 2 or 3 arguments")
        text = _string_of(values[0])
        pattern = _string_of(values[1])
        flags = 0
        if len(values) == 3:
            flag_text = _string_of(values[2])
            if "i" in flag_text:
                flags |= re.IGNORECASE
        try:
            return re.search(pattern, text, flags) is not None
        except re.error as exc:
            raise SparqlTypeError(f"bad REGEX pattern: {exc}") from exc

    if name == "STR":
        arity(1)
        return Literal(_string_of(values[0]))

    if name == "LANG":
        arity(1)
        value = values[0]
        if not isinstance(value, Literal):
            raise SparqlTypeError("LANG expects a literal")
        return Literal(value.language or "")

    if name == "LANGMATCHES":
        arity(2)
        tag = _string_of(values[0]).lower()
        pattern = _string_of(values[1]).lower()
        if pattern == "*":
            return bool(tag)
        return tag == pattern or tag.startswith(pattern + "-")

    if name == "DATATYPE":
        arity(1)
        value = values[0]
        if not isinstance(value, Literal):
            raise SparqlTypeError("DATATYPE expects a literal")
        if value.datatype:
            return IRI(value.datatype)
        return IRI("http://www.w3.org/2001/XMLSchema#string")

    if name == "CONTAINS":
        arity(2)
        return _string_of(values[1]) in _string_of(values[0])

    if name == "STRSTARTS":
        arity(2)
        return _string_of(values[0]).startswith(_string_of(values[1]))

    if name == "STRENDS":
        arity(2)
        return _string_of(values[0]).endswith(_string_of(values[1]))

    if name == "LCASE":
        arity(1)
        return Literal(_string_of(values[0]).lower())

    if name == "UCASE":
        arity(1)
        return Literal(_string_of(values[0]).upper())

    if name in ("ISIRI", "ISURI"):
        arity(1)
        return isinstance(values[0], IRI)

    if name == "ISLITERAL":
        arity(1)
        return isinstance(values[0], Literal)

    if name == "ISBLANK":
        arity(1)
        return isinstance(values[0], BNode)

    raise SparqlTypeError(f"unknown function {name}")


# DESC helpers of the term-space oracle's ORDER BY (repro.sparql.engine),
# which sorts by ``order_key`` tuples; the columnar engine sorts by order
# ranks (repro.rdf.order) and needs neither.


class Inverted:
    """Wrapper inverting comparison order for DESC sort keys."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def __lt__(self, other: "Inverted") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Inverted) and other.value == self.value


def invert_order(value: Any) -> Any:
    """Invert a within-kind ORDER BY key for descending sorts."""
    if isinstance(value, (int, float)):
        return -value
    return Inverted(value)
