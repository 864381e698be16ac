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

The order also decides range FILTERs against a constant.  For a constant
``c`` of kind :data:`NUMBER_KIND` or :data:`DATE_KIND` and ``OP`` one of
``<``, ``<=``, ``>``, ``>=``, :func:`repro.sparql.functions.compare_values`
(``OP``, ``t``, ``c``) is true exactly when ``order_key(t)`` has ``c``'s
kind and ``order_key(t) OP order_key(c)``:

* a term of any other kind is a type error there, so the filter fails —
  strings, booleans, IRIs and blank nodes, and numbers against dates;
* NaN compares false against everything, and has a kind of its own;
* a malformed number or date is a type error there, and ranks among the
  other literals by its lexical form (a gYear outside the years 1-9999,
  which no date can hold, counts as malformed);
* values equal across datatypes share a key (``2.5``, ``2.50`` and
  ``2.5E0``; ``-0.0`` and ``0``; a date and a dateTime on that day).

So the terms that pass such a filter form one interval of ranks, which
the columnar engine tests without decoding a term
(:meth:`repro.kb.segment.SegmentDictionary.first_rank`).
"""

from __future__ import annotations

import datetime as dt
from typing import Any, Sequence

from repro.rdf.datatypes import is_date_literal, is_numeric_literal, literal_value
from repro.rdf.terms import BNode, IRI, Literal

#: Names the key definition below; bump it whenever :func:`order_key`
#: changes, so shipped rank columns built under the old key are ignored.
ORDER_VERSION = "repro.order/v1"

#: The kinds of :func:`order_key`, in their sort order (the first field
#: of every key).
(
    UNBOUND_KIND, BNODE_KIND, IRI_KIND, NUMBER_KIND, NAN_KIND, DATE_KIND,
    LITERAL_KIND, OTHER_KIND,
) = range(8)


def order_key(value: Any) -> tuple[int, Any]:
    """Sort key for ORDER BY: groups by kind then compares within the kind.

    SPARQL defines an ordering across term kinds (unbound < blank < IRI <
    literal); within literals we compare native values where possible.
    NaN gets a kind of its own, right after every number: ``float('nan')``
    compares false against everything, which would make the sort depend
    on input order.
    """
    if value is None:
        return (UNBOUND_KIND, "")
    if isinstance(value, BNode):
        return (BNODE_KIND, value.label)
    if isinstance(value, IRI):
        return (IRI_KIND, value.value)
    if isinstance(value, Literal):
        if is_numeric_literal(value):
            native = literal_value(value)
            if not isinstance(native, str):
                if native != native:  # NaN
                    return (NAN_KIND, 0)
                return (NUMBER_KIND, native)
        if is_date_literal(value):
            native = literal_value(value)
            if isinstance(native, dt.datetime):
                return (DATE_KIND, native.date().toordinal())
            if isinstance(native, dt.date):
                return (DATE_KIND, native.toordinal())
            if isinstance(native, int) and dt.MINYEAR <= native <= dt.MAXYEAR:
                return (DATE_KIND, dt.date(native, 1, 1).toordinal())
        return (LITERAL_KIND, value.lexical)
    return (OTHER_KIND, str(value))


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
