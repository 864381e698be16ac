"""A SPARQL-subset query engine over :class:`repro.rdf.Graph`.

Implements the fragment the question-answering pipeline generates — and a
useful margin beyond it:

* ``SELECT`` (with ``DISTINCT``, projection, ``*``), ``ASK``
* ``COUNT`` / ``COUNT(DISTINCT ...)`` aggregates
* basic graph patterns, ``FILTER``, ``OPTIONAL``, ``UNION``
* ``ORDER BY`` (``ASC``/``DESC``), ``LIMIT``, ``OFFSET``
* ``PREFIX`` declarations plus the built-in prefix table
* filter builtins: comparisons, ``&&``/``||``/``!``, ``REGEX``, ``STR``,
  ``LANG``, ``DATATYPE``, ``BOUND``, ``CONTAINS``, ``STRSTARTS``,
  ``LCASE``/``UCASE``, ``isIRI``/``isLiteral``

Queries are parsed to an AST (:mod:`repro.sparql.ast`), compiled to an
id-space plan with a selectivity-ordered join order
(:mod:`repro.sparql.compiler`, :mod:`repro.sparql.planner`) and executed
on column batches (:mod:`repro.sparql.columnar`); the term-space iterator
executor (:mod:`repro.sparql.executor`) is the reference oracle.
"""

from repro.sparql.ast import (
    AskQuery,
    SelectQuery,
)
from repro.sparql.columnar import ColumnarQuery, ColumnBatch
from repro.sparql.engine import SparqlEngine, ask, select
from repro.sparql.errors import SparqlError, SparqlParseError, SparqlTypeError
from repro.sparql.parser import parse_query
from repro.sparql.results import AskResult, SelectResult
from repro.sparql.scatter import (
    ScatterGatherExecutor,
    partition_spec,
    partition_variable,
)
from repro.sparql.serializer import serialize_query

__all__ = [
    "SparqlEngine",
    "ColumnarQuery",
    "ColumnBatch",
    "ScatterGatherExecutor",
    "partition_variable",
    "partition_spec",
    "parse_query",
    "serialize_query",
    "select",
    "ask",
    "SelectQuery",
    "AskQuery",
    "SelectResult",
    "AskResult",
    "SparqlError",
    "SparqlParseError",
    "SparqlTypeError",
]
