"""The ORDER BY order over terms: sort keys and dense order ranks.

:func:`order_key` is the one definition of how SPARQL ORDER BY compares
values.  The term-space oracle sorts by it directly; the columnar engine
sorts by *ranks* — a term's dense position under :func:`order_key`,
where equal keys share a rank — which turn every ORDER BY key into an
int64 column.  A segment dictionary ships one rank per term id
(:func:`repro.kb.segment.write_dictionary`), stamped with
:data:`ORDER_VERSION`, so ranks computed under another version of this
module are never paired with this one.

The order is a total preorder: kinds first (unbound < blank node < IRI <
number < NaN < date < other literal), then native values within a kind.
Every NaN sorts equal to every other NaN, right after all numbers.
"""

from __future__ import annotations

import datetime as dt
from typing import Any, Sequence

from repro.rdf.datatypes import is_date_literal, is_numeric_literal, literal_value
from repro.rdf.terms import BNode, IRI, Literal

#: Names the key definition below; bump it whenever :func:`order_key`
#: changes, so shipped rank columns built under the old key are ignored.
ORDER_VERSION = "repro.order/v1"


def order_key(value: Any) -> tuple[int, Any]:
    """Sort key for ORDER BY: groups by kind then compares within the kind.

    SPARQL defines an ordering across term kinds (unbound < blank < IRI <
    literal); within literals we compare native values where possible.
    NaN gets a kind of its own, right after every number: ``float('nan')``
    compares false against everything, which would make the sort depend
    on input order.
    """
    if value is None:
        return (0, "")
    if isinstance(value, BNode):
        return (1, value.label)
    if isinstance(value, IRI):
        return (2, value.value)
    if isinstance(value, Literal):
        if is_numeric_literal(value):
            native = literal_value(value)
            if not isinstance(native, str):
                if native != native:  # NaN
                    return (4, 0)
                return (3, native)
        if is_date_literal(value):
            native = literal_value(value)
            if isinstance(native, dt.datetime):
                return (5, native.date().toordinal())
            if isinstance(native, dt.date):
                return (5, native.toordinal())
            if isinstance(native, int):
                return (5, dt.date(native, 1, 1).toordinal())
        return (6, value.lexical)
    return (7, str(value))


def order_ranks(values: Sequence[Any]) -> list[int]:
    """The dense rank of each value under :func:`order_key`.

    Ranks start at 0 and equal keys share one, so sorting by rank and
    sorting by key give the same order, ties included.
    """
    keys = [order_key(value) for value in values]
    ranks = [0] * len(keys)
    rank = -1
    previous: Any = None
    for index in sorted(range(len(keys)), key=keys.__getitem__):
        key = keys[index]
        if rank < 0 or key != previous:
            rank += 1
            previous = key
        ranks[index] = rank
    return ranks
