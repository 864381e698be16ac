"""EXPLAIN: show the executor's plan for a query.

Renders, per group, the planner's join order with the cardinality
estimates it used, plus filter placement — the classic relational EXPLAIN,
adapted to BGPs.  Purely observational: calling it never executes the
query.
"""

from __future__ import annotations

from repro.rdf.graph import Graph
from repro.rdf.terms import Variable
from repro.sparql.ast import (
    AskQuery,
    BGP,
    Filter,
    Group,
    OptionalPattern,
    SelectQuery,
    UnionPattern,
)
from repro.sparql.columnar import compile_query
from repro.sparql.compiler import HASH_JOIN_MIN_ROWS
from repro.sparql.parser import parse_query
from repro.sparql.planner import estimate_cardinality, plan_bgp
from repro.sparql.serializer import serialize_expression, serialize_term


def explain(graph: Graph, query: str | SelectQuery | AskQuery) -> str:
    """Produce the plan description for a query over ``graph``.

    >>> from repro.rdf import DBO, DBR, Graph, RDF, Triple
    >>> g = Graph([Triple(DBR.Snow, RDF.type, DBO.Book)])
    >>> print(explain(g, "SELECT ?x WHERE { ?x a dbo:Book }"))
    SELECT plan
    group
      join[1] scan ?x rdf:type dbo:Book (est. 1)
    engine: columnar id-space plan (1 slot(s): ?x; batch join above 64 rows)
    """
    if isinstance(query, str):
        query = parse_query(query)
    lines: list[str] = []
    if isinstance(query, SelectQuery):
        lines.append("SELECT plan")
        where = query.where
    else:
        lines.append("ASK plan (stops at first solution)")
        where = query.where
    _explain_group(graph, where, lines, indent="", bound=set())
    if isinstance(query, SelectQuery):
        if query.distinct:
            lines.append("then: DISTINCT")
        if query.order_by:
            lines.append(f"then: ORDER BY ({len(query.order_by)} key(s))")
        if query.limit is not None or query.offset:
            lines.append(
                f"then: slice offset={query.offset} limit={query.limit}"
            )
    # Execution detail (docs/performance.md, "Engine architecture"):
    # compiling is cheap and observational — it never runs the query.
    compiled = compile_query(query, graph)
    slots = " ".join(
        f"?{compiled.slot_names[slot]}" for slot in sorted(compiled.slot_names)
    )
    lines.append(
        f"engine: columnar id-space plan ({compiled.width} slot(s): {slots}; "
        f"batch join above {HASH_JOIN_MIN_ROWS} rows)"
    )
    return "\n".join(lines)


def _explain_group(
    graph: Graph, group: Group, lines: list[str], indent: str,
    bound: set[Variable],
) -> None:
    lines.append(f"{indent}group")
    inner = indent + "  "
    filters: list[Filter] = []
    for child in group.patterns:
        if isinstance(child, BGP):
            ordered = plan_bgp(graph, child.triples, bound)
            for step, pattern in enumerate(ordered, start=1):
                estimate = estimate_cardinality(graph, pattern, bound)
                access = "lookup" if pattern.is_ground() else "scan"
                rendered = " ".join(
                    serialize_term(slot) for slot in pattern
                )
                lines.append(
                    f"{inner}join[{step}] {access} {rendered} "
                    f"(est. {estimate:.0f})"
                )
                bound |= pattern.variables()
        elif isinstance(child, Filter):
            filters.append(child)
        elif isinstance(child, OptionalPattern):
            lines.append(f"{inner}left-join")
            _explain_group(graph, child.pattern, lines, inner + "  ", set(bound))
        elif isinstance(child, UnionPattern):
            lines.append(f"{inner}union")
            _explain_group(graph, child.left, lines, inner + "  ", set(bound))
            _explain_group(graph, child.right, lines, inner + "  ", set(bound))
        elif isinstance(child, Group):
            _explain_group(graph, child, lines, inner, set(bound))
    for constraint in filters:
        lines.append(
            f"{inner}filter {serialize_expression(constraint.expression)}"
        )
