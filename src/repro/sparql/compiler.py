"""Compiled id-space query plans.

The term-space evaluator (:mod:`repro.sparql.executor`) decodes every
matched triple back into :class:`~repro.rdf.terms.Term` objects and copies
a ``dict[Variable, Term]`` per extension — encode/decode and dict-churn
costs on every row of every join of every candidate query.  This module
compiles a :class:`~repro.sparql.ast.SelectQuery`/:class:`~repro.sparql.ast.AskQuery`
once into a plan over the integer id space the dictionary-encoded
:class:`~repro.rdf.Graph` already maintains:

* every variable of the query maps to a dense **slot index**; a partial
  solution is a flat tuple of ids with :data:`UNBOUND` (-1) holes — no
  dictionaries, no Term objects;
* triple patterns resolve their constants to dictionary ids when the plan
  compiles (an absent constant resolves to -1 and matches nothing), are
  counted once on those ids, join in the order
  :func:`repro.sparql.planner.order_patterns` picks from the counts, and
  match through :meth:`~repro.rdf.Graph.match_ids`;
* FILTER / ORDER BY expressions compile once into closures over slot
  indices (:func:`compile_expression`) instead of re-walking the AST per
  solution, with an id-level fast path for ``?var = <iri>`` equality; a
  top-level ``?var < 10`` against a number or date constant is also
  tagged as a :class:`RangeFilter`, which the columnar engine tests in
  order-rank space;
* ids decode to Terms only at final projection, after DISTINCT collapsed
  duplicate id rows.

This module only compiles.  Execution lives in :mod:`repro.sparql.columnar`,
whose :class:`~repro.sparql.columnar.ColumnarQuery` runs the compiled
pattern tree over whole id-column batches.  The engine compiles a plan
for every result-cache miss and keeps none — see docs/performance.md
("No plan cache").
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

from repro.obs.metrics import MetricsRegistry
from repro.rdf.graph import Graph
from repro.rdf.order import DATE_KIND, NUMBER_KIND, order_key
from repro.rdf.terms import BNode, IRI, Literal, Term, Triple, Variable
from repro.sparql.ast import (
    AskQuery,
    BGP,
    BooleanOp,
    Comparison,
    Expression,
    Filter,
    FunctionCall,
    Group,
    Not,
    OptionalPattern,
    SelectQuery,
    TermExpr,
    UnionPattern,
)
from repro.sparql.errors import SparqlError, SparqlTypeError
from repro.sparql.functions import (
    apply_builtin,
    compare_values,
    effective_boolean,
)
from repro.sparql.planner import order_patterns

#: Slot value marking "this variable is not bound in this row".  Real
#: dictionary ids are non-negative; the graph's own ``-1`` ("constant not
#: in dictionary") never appears inside a row because absent constants are
#: filtered out before a pattern executes.
UNBOUND = -1

#: A batch join reads one scan of the pattern's matches in place of one
#: index lookup per row, and pays off only while that scan is at most
#: this many times larger than the batch; beyond it the pattern joins by
#: per-row index lookups.
HASH_JOIN_MAX_SCAN_FACTOR = 8

Row = tuple[int, ...]


class ExecContext:
    """Per-execution plumbing handed through the operator tree.

    ``filter_memo`` maps a compiled filter closure to its verdicts per
    distinct id combination, or a range filter's closure to its interval
    of order ranks.  One dict serves one execution, or every shard of one
    scatter gather, which then evaluates each combination and searches
    each interval once; none outlives the query.
    """

    __slots__ = ("graph", "stats", "filter_memo")

    def __init__(
        self,
        graph: Graph,
        stats: MetricsRegistry | None = None,
        filter_memo: dict | None = None,
    ) -> None:
        self.graph = graph
        self.stats = stats
        self.filter_memo = filter_memo


# ---------------------------------------------------------------------------
# Triple patterns
# ---------------------------------------------------------------------------


class CompiledPattern:
    """One triple pattern with variables mapped to slots and constants to ids.

    ``*_slot`` is the slot index for a variable position (None for a
    constant); ``*_id`` is the dictionary id a constant position resolved
    to on ``graph`` (-1 when the constant is absent from the dictionary;
    None for a variable).  ``count`` is the pattern's exact match count on
    ``graph`` with every variable open, taken once here: the planner
    orders on it and the scatter gate sizes plans by it.
    """

    __slots__ = (
        "s_slot", "p_slot", "o_slot",
        "s_id", "p_id", "o_id",
        "count",
    )

    def __init__(
        self, triple: Triple, slot_of: dict[Variable, int], graph: Graph
    ) -> None:
        self.s_slot, self.s_id = self._position(triple.subject, slot_of, graph)
        self.p_slot, self.p_id = self._position(triple.predicate, slot_of, graph)
        self.o_slot, self.o_id = self._position(triple.object, slot_of, graph)
        self.count = graph.count_ids(self.s_id, self.p_id, self.o_id)

    @staticmethod
    def _position(
        slot: Term, slot_of: dict[Variable, int], graph: Graph
    ) -> tuple[int | None, int | None]:
        if isinstance(slot, Variable):
            return slot_of[slot], None
        return None, graph.lookup_id(slot)

    # -- execution -----------------------------------------------------

    def bound_ids(self, row: Row) -> tuple[int | None, int | None, int | None]:
        """The (s, p, o) lookup ids for one row: constants stay, bound
        variables substitute, unbound variables become wildcards."""
        s = self.s_id if self.s_slot is None else row[self.s_slot]
        p = self.p_id if self.p_slot is None else row[self.p_slot]
        o = self.o_id if self.o_slot is None else row[self.o_slot]
        return (
            None if s == UNBOUND and self.s_slot is not None else s,
            None if p == UNBOUND and self.p_slot is not None else p,
            None if o == UNBOUND and self.o_slot is not None else o,
        )

    def extend(self, rows: list[Row], graph: Graph) -> list[Row]:
        """Nested-index-loop join: extend every row with every match."""
        match_ids = graph.match_ids
        s_slot, p_slot, o_slot = self.s_slot, self.p_slot, self.o_slot
        out: list[Row] = []
        append = out.append
        for row in rows:
            s, p, o = self.bound_ids(row)
            for ms, mp, mo in match_ids(s, p, o):
                extended = list(row)
                ok = True
                # Repeated variables (e.g. ``?x ?p ?x``) hit the same slot
                # twice: the first write binds, the second must agree.
                for slot, value in (
                    (s_slot, ms), (p_slot, mp), (o_slot, mo)
                ):
                    if slot is None:
                        continue
                    current = extended[slot]
                    if current == UNBOUND:
                        extended[slot] = value
                    elif current != value:
                        ok = False
                        break
                if ok:
                    append(tuple(extended))
        return out


# ---------------------------------------------------------------------------
# Expression compilation
# ---------------------------------------------------------------------------

Valuation = Callable[[Row], Any]


def compile_expression(
    expression: Expression,
    slot_of: dict[Variable, int],
    graph: Graph,
    slots_used: set[int] | None = None,
) -> Valuation:
    """Compile an expression into a closure over an id row of ``graph``.

    The closure raises :class:`SparqlTypeError` exactly where the
    AST-walking evaluator would; callers wrap it per SPARQL error scoping
    (filters fail, ORDER BY keys become unbound-kind).  Variables decode
    through ``graph``, and the constant of an id-equality fast path
    resolves against it here, once.

    ``slots_used`` collects the slot index of every variable the
    expression can read.  The columnar engine keys its per-distinct-value
    memo on exactly these slots, so the closure result for one id
    combination is computed once per batch instead of once per row.
    """
    if isinstance(expression, TermExpr):
        term = expression.term
        if isinstance(term, Variable):
            slot = slot_of.get(term)
            if slot is not None and slots_used is not None:
                slots_used.add(slot)
            if slot is None:
                # A variable that appears nowhere in the pattern tree is
                # never bound — mirror the evaluator's unbound error.
                def never(row: Row, name: str = term.name) -> Any:
                    raise SparqlTypeError(f"unbound variable ?{name}")
                return never

            decode = graph.decode_id

            def value_of(row: Row, slot: int = slot, name: str = term.name) -> Any:
                term_id = row[slot]
                if term_id == UNBOUND:
                    raise SparqlTypeError(f"unbound variable ?{name}")
                return decode(term_id)
            return value_of
        return lambda row: term

    if isinstance(expression, Comparison):
        fast = _compile_id_equality(expression, slot_of, graph)
        if fast is not None:
            if slots_used is not None:
                slots_used.add(fast.slot)
            return fast
        left = compile_expression(expression.left, slot_of, graph, slots_used)
        right = compile_expression(expression.right, slot_of, graph, slots_used)
        operator = expression.operator
        return lambda row: compare_values(operator, left(row), right(row))

    if isinstance(expression, BooleanOp):
        left = compile_expression(expression.left, slot_of, graph, slots_used)
        right = compile_expression(expression.right, slot_of, graph, slots_used)

        def side(value_of: Valuation, row: Row) -> bool | None:
            try:
                return effective_boolean(value_of(row))
            except SparqlTypeError:
                return None

        if expression.operator == "&&":
            def conjunction(row: Row) -> bool:
                lhs, rhs = side(left, row), side(right, row)
                if lhs is False or rhs is False:
                    return False
                if lhs is True and rhs is True:
                    return True
                raise SparqlTypeError("type error in &&")
            return conjunction

        def disjunction(row: Row) -> bool:
            lhs, rhs = side(left, row), side(right, row)
            if lhs is True or rhs is True:
                return True
            if lhs is False and rhs is False:
                return False
            raise SparqlTypeError("type error in ||")
        return disjunction

    if isinstance(expression, Not):
        operand = compile_expression(
            expression.operand, slot_of, graph, slots_used
        )
        return lambda row: not effective_boolean(operand(row))

    if isinstance(expression, FunctionCall):
        name = expression.name
        if name == "BOUND":
            if len(expression.arguments) != 1:
                raise SparqlTypeError("BOUND expects 1 argument(s), got "
                                      f"{len(expression.arguments)}")
            operand = expression.arguments[0]
            if not (isinstance(operand, TermExpr)
                    and isinstance(operand.term, Variable)):
                raise SparqlTypeError("BOUND expects a variable")
            slot = slot_of.get(operand.term)
            if slot is None:
                return lambda row: False
            if slots_used is not None:
                slots_used.add(slot)
            return lambda row: row[slot] != UNBOUND
        argument_closures = tuple(
            compile_expression(argument, slot_of, graph, slots_used)
            for argument in expression.arguments
        )
        return lambda row: apply_builtin(
            name, tuple(closure(row) for closure in argument_closures)
        )

    raise SparqlTypeError(f"cannot compile {type(expression).__name__}")


#: ``c OP ?v`` reads as ``?v FLIPPED[OP] c``.
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


class RangeFilter(NamedTuple):
    """A top-level FILTER ``?v OP c`` whose constant ``c`` is a number or
    a date, with the variable normalised to the left.

    The terms that pass it form one interval of order ranks (the
    invariant stated in :mod:`repro.rdf.order`), so over a dictionary
    that ships ranks the columnar engine keeps a row on
    ``lo <= ranks[id] < hi`` without decoding a term.
    """

    slot: int
    operator: str
    key: tuple


def _range_filter(
    expression: Expression, slot_of: dict[Variable, int]
) -> RangeFilter | None:
    """The :class:`RangeFilter` form of a FILTER expression, or None when
    it is not a range comparison of one bound variable with a number or
    date constant (NaN and malformed constants have other kinds)."""
    if not isinstance(expression, Comparison):
        return None
    operator = expression.operator
    left, right = expression.left, expression.right
    if operator not in _FLIPPED or not (
        isinstance(left, TermExpr) and isinstance(right, TermExpr)
    ):
        return None
    if isinstance(right.term, Variable):
        left, right = right, left
        operator = _FLIPPED[operator]
    variable, constant = left.term, right.term
    if not (isinstance(variable, Variable) and isinstance(constant, Literal)):
        return None
    slot = slot_of.get(variable)
    key = order_key(constant)
    if slot is None or key[0] not in (NUMBER_KIND, DATE_KIND):
        return None
    return RangeFilter(slot, operator, key)


def _compile_id_equality(
    expression: Comparison, slot_of: dict[Variable, int], graph: Graph
) -> Valuation | None:
    """Fast path: ``?var = <iri>`` / ``?var != <iri>`` compare ids directly.

    Sound because dictionary encoding is injective and SPARQL defines
    IRI/BNode comparison as term equality; literals stay on the value path
    (distinct literal terms can compare equal by value).  A constant absent
    from the dictionary resolves to -1, which equals no bound id.
    """
    if expression.operator not in ("=", "!="):
        return None
    sides = (expression.left, expression.right)
    variable: Variable | None = None
    constant: Term | None = None
    for side in sides:
        if not isinstance(side, TermExpr):
            return None
        if isinstance(side.term, Variable):
            variable = side.term
        elif isinstance(side.term, (IRI, BNode)):
            constant = side.term
        else:
            return None
    if variable is None or constant is None:
        return None
    slot = slot_of.get(variable)
    if slot is None:
        return None
    negate = expression.operator == "!="
    name = variable.name
    constant_id = graph.lookup_id(constant)

    def equals(row: Row) -> bool:
        term_id = row[slot]
        if term_id == UNBOUND:
            raise SparqlTypeError(f"unbound variable ?{name}")
        return (term_id != constant_id) if negate else (term_id == constant_id)

    equals.constant_id = constant_id  # type: ignore[attr-defined]
    # Columnar metadata: the batch engine turns a top-level id-equality
    # filter into one whole-column mask instead of a per-row call.
    equals.slot = slot  # type: ignore[attr-defined]
    equals.negate = negate  # type: ignore[attr-defined]
    return equals


# ---------------------------------------------------------------------------
# Pattern-tree nodes (executed by repro.sparql.columnar)
# ---------------------------------------------------------------------------


class CompiledBGP:
    """A basic graph pattern: its patterns in planned join order."""

    __slots__ = ("patterns",)

    def __init__(self, patterns: list[CompiledPattern]) -> None:
        self.patterns = patterns


class CompiledOptional:
    """OPTIONAL: left join against a compiled subgroup."""

    __slots__ = ("group",)

    def __init__(self, group: "CompiledGroup") -> None:
        self.group = group


class CompiledUnion:
    """UNION: concatenation of both branches over the same input."""

    __slots__ = ("left", "right")

    def __init__(self, left: "CompiledGroup", right: "CompiledGroup") -> None:
        self.left = left
        self.right = right


class CompiledGroup:
    """A ``{ ... }`` group: ordered children, filters applied at the end."""

    __slots__ = ("children", "filters")

    def __init__(
        self,
        children: list[Any],
        filters: list[Valuation],
    ) -> None:
        self.children = children
        self.filters = filters


# ---------------------------------------------------------------------------
# Whole-query plans
# ---------------------------------------------------------------------------


class CompiledQuery:
    """The compiled id-space form of one SELECT or ASK query over one
    graph, executed by its subclass
    :class:`repro.sparql.columnar.ColumnarQuery`.

    Constants resolve to the graph's dictionary ids as the plan compiles.
    The engine compiles a plan per result-cache miss and runs it at once;
    the scatter executor keeps star plans only over an immutable segment
    backend.  So no plan sees a dictionary grow after it compiled.
    """

    def __init__(self, query: SelectQuery | AskQuery, graph: Graph) -> None:
        self.query = query
        self.is_ask = isinstance(query, AskQuery)
        self.slot_of: dict[Variable, int] = {}
        self._collect_variables(query.where)
        self.width = len(self.slot_of)
        self.slot_names = {
            slot: variable.name for variable, slot in self.slot_of.items()
        }
        self.slot_by_name = {
            variable.name: slot for variable, slot in self.slot_of.items()
        }
        # ORDER BY tie-break order (docs/performance.md, "Deterministic
        # ordering"): rows with equal sort keys fall back to their id
        # tuple over all slots, taken in variable-name order so both
        # engines — term-space and columnar — agree on the total order.
        self.tiebreak_slots = tuple(
            slot for __, slot in sorted(self.slot_by_name.items())
        )
        self._patterns: list[CompiledPattern] = []
        self.root = self._compile_group(query.where, graph, set())
        if not self.is_ask:
            self._compile_select_tail(query, graph)

    # -- compilation ---------------------------------------------------

    def _collect_variables(self, group: Group) -> None:
        for child in group.patterns:
            if isinstance(child, BGP):
                for triple in child.triples:
                    for variable in sorted(
                        triple.variables(), key=lambda v: v.name
                    ):
                        if variable not in self.slot_of:
                            self.slot_of[variable] = len(self.slot_of)
            elif isinstance(child, OptionalPattern):
                self._collect_variables(child.pattern)
            elif isinstance(child, UnionPattern):
                self._collect_variables(child.left)
                self._collect_variables(child.right)
            elif isinstance(child, Group):
                self._collect_variables(child)

    def _compile_group(
        self, group: Group, graph: Graph, bound: set[Variable]
    ) -> CompiledGroup:
        """Compile one group, tracking which variables are *definitely*
        bound at each child (intersection semantics: OPTIONAL guarantees
        nothing, UNION guarantees the branches' intersection)."""
        children: list[Any] = []
        filters: list[Valuation] = []
        for child in group.patterns:
            if isinstance(child, BGP):
                children.append(self._compile_bgp(child, graph, bound))
                for triple in child.triples:
                    bound |= triple.variables()
            elif isinstance(child, Filter):
                closure = self._register_filter(child.expression, graph)
                range_filter = _range_filter(child.expression, self.slot_of)
                if range_filter is not None:
                    closure.range_filter = range_filter  # type: ignore[attr-defined]
                filters.append(closure)
            elif isinstance(child, OptionalPattern):
                children.append(
                    CompiledOptional(
                        self._compile_group(child.pattern, graph, set(bound))
                    )
                )
            elif isinstance(child, UnionPattern):
                left_bound = set(bound)
                right_bound = set(bound)
                compiled_union = CompiledUnion(
                    self._compile_group(child.left, graph, left_bound),
                    self._compile_group(child.right, graph, right_bound),
                )
                children.append(compiled_union)
                bound |= left_bound & right_bound
            elif isinstance(child, Group):
                children.append(self._compile_group(child, graph, bound))
            else:
                raise SparqlError(
                    f"unknown pattern node {type(child).__name__}"
                )
        return CompiledGroup(children, filters)

    def _register_filter(self, expression: Expression, graph: Graph) -> Valuation:
        slots_used: set[int] = set()
        closure = compile_expression(expression, self.slot_of, graph, slots_used)
        # The columnar engine memoizes closure results per distinct value
        # combination of exactly these slots (see repro.sparql.columnar).
        closure.slots_used = frozenset(slots_used)  # type: ignore[attr-defined]
        return closure

    def _compile_bgp(
        self,
        bgp: BGP,
        graph: Graph,
        bound: set[Variable],
    ) -> CompiledBGP:
        compiled = [
            CompiledPattern(triple, self.slot_of, graph)
            for triple in bgp.triples
        ]
        steps = order_patterns(
            [pattern.count for pattern in compiled],
            [
                (pattern.s_slot, pattern.p_slot, pattern.o_slot)
                for pattern in compiled
            ],
            {self.slot_of[variable] for variable in bound},
        )
        ordered = [compiled[index] for index, __ in steps]
        self._patterns.extend(ordered)
        return CompiledBGP(ordered)

    def _compile_select_tail(self, query: SelectQuery, graph: Graph) -> None:
        # Each ORDER BY key: its closure, DESC flag, and the slot of a
        # plain-variable key (None for any other key), which lets the
        # columnar engine gather shipped order ranks instead of
        # evaluating the closure.
        self._order_keys: list[tuple[Valuation, bool, int | None]] = [
            (
                self._register_filter(condition.expression, graph),
                condition.descending,
                self.slot_of.get(condition.expression.term)
                if isinstance(condition.expression, TermExpr)
                else None,
            )
            for condition in query.order_by
        ]
        self._decode = graph.decode_id


# ---------------------------------------------------------------------------
# Star decomposition (plan slicing for the scatter layer)
# ---------------------------------------------------------------------------


def _expression_names(expression) -> set[str]:
    """Names of every variable mentioned anywhere in ``expression``."""
    if isinstance(expression, TermExpr):
        return (
            {expression.term.name}
            if isinstance(expression.term, Variable)
            else set()
        )
    if isinstance(expression, (Comparison, BooleanOp)):
        return _expression_names(expression.left) | _expression_names(
            expression.right
        )
    if isinstance(expression, Not):
        return _expression_names(expression.operand)
    if isinstance(expression, FunctionCall):
        out: set[str] = set()
        for argument in expression.arguments:
            out |= _expression_names(argument)
        return out
    return set()


class StarSlice:
    """One subject star of a decomposed conjunctive query.

    ``query`` is a ``SELECT *`` subquery holding exactly this star's
    triples plus any pushed-down filters (no ordering, no slicing) —
    structurally hashable, so the scatter coordinator compiles it once
    and keeps the plan in its star-plan LRU.  ``names`` is the
    name-sorted set of variables the star binds.
    """

    __slots__ = ("query", "names")

    def __init__(
        self, triples: tuple[Triple, ...], filters: tuple = ()
    ) -> None:
        self.names = tuple(
            sorted(
                {
                    term.name
                    for triple in triples
                    for term in triple.variables()
                }
            )
        )
        children: tuple = (BGP(triples),) + tuple(
            Filter(expression) for expression in filters
        )
        self.query = SelectQuery(projection=(), where=Group(children))


class TwoStarSlice:
    """A flat conjunctive query decomposed into two subject stars.

    ``join_names`` is the (nonempty, name-sorted) set of variable names
    the stars share.  Because BGP solutions over a set-graph are *sets* of
    assignments, the full query's solution multiset is exactly the natural
    join of the two stars' solution sets on these variables — which is
    what makes per-shard semi-join evaluation in
    :mod:`repro.sparql.scatter` equivalent to single-process execution.

    ``residual`` holds the positions (in WHERE order, i.e. indexes into
    the full plan's top-level ``CompiledGroup.filters``) of the filters
    that were *not* pushed into a star: cross-star filters, variable-free
    filters, and filters naming a variable neither star binds.
    """

    __slots__ = ("stars", "join_names", "residual")

    def __init__(
        self, stars: tuple[StarSlice, StarSlice], residual: tuple[int, ...]
    ) -> None:
        self.stars = stars
        self.join_names = tuple(
            sorted(set(stars[0].names) & set(stars[1].names))
        )
        self.residual = residual


def slice_two_star(query: SelectQuery | AskQuery) -> TwoStarSlice | None:
    """Decompose a flat conjunctive query into two connected subject stars.

    Returns ``None`` whenever the query is not exactly this shape: the
    WHERE group must contain only BGP/Filter children, every triple's
    subject must be a variable, the subjects must form exactly two
    distinct variables, and the two stars must share at least one
    variable (a disconnected pair would be a cartesian product — cheaper
    to leave to the single-process engine than to broadcast).

    A filter whose variables are all bound by one star is *pushed down*
    into that star's subquery, so shards prune before shipping — sound
    because a flat BGP star always binds every one of its variables, so
    the filter sees identical bindings per solution whether it runs
    per-shard or after the join.  Every other filter is *residual*
    (recorded in :attr:`TwoStarSlice.residual`): the scatter coordinator
    applies only those after the join, over the whole conjunction's
    bindings.  Pushed filters already held on the same bindings, so the
    pair reproduces group-level FILTER semantics exactly.
    """
    triples: list[Triple] = []
    expressions: list = []
    for child in query.where.patterns:
        if isinstance(child, BGP):
            triples.extend(child.triples)
        elif isinstance(child, Filter):
            expressions.append(child.expression)
        else:
            return None
    if len(triples) < 2:
        return None
    subjects: list[Variable] = []
    for triple in triples:
        if not isinstance(triple.subject, Variable):
            return None
        if triple.subject not in subjects:
            subjects.append(triple.subject)
    if len(subjects) != 2:
        return None
    star_triples = [
        tuple(t for t in triples if t.subject == subject)
        for subject in subjects
    ]
    star_names = [
        {term.name for t in group for term in t.variables()}
        for group in star_triples
    ]
    star_filters: list[list] = [[], []]
    residual: list[int] = []
    for position, expression in enumerate(expressions):
        names = _expression_names(expression)
        for index in (0, 1):
            if names and names <= star_names[index]:
                star_filters[index].append(expression)
                break
        else:
            residual.append(position)
    stars = tuple(
        StarSlice(group, tuple(filters))
        for group, filters in zip(star_triples, star_filters)
    )
    sliced = TwoStarSlice(stars, tuple(residual))  # type: ignore[arg-type]
    if not sliced.join_names:
        return None
    return sliced
