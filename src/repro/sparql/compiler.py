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
* triple patterns resolve their constants to dictionary ids at bind time
  (ids are append-only, so resolved constants survive graph mutations; an
  absent constant re-resolves on the next generation), join in the order
  :func:`repro.sparql.planner.plan_bgp` picks, and match through
  :meth:`~repro.rdf.Graph.match_ids`;
* FILTER / ORDER BY expressions compile once into closures over slot
  indices (:func:`compile_expression`) instead of re-walking the AST per
  solution, with an id-level fast path for ``?var = <iri>`` equality;
* ids decode to Terms only at final projection, after DISTINCT collapsed
  duplicate id rows.

This module only compiles.  Execution lives in :mod:`repro.sparql.columnar`,
whose :class:`~repro.sparql.columnar.ColumnarQuery` runs the compiled
pattern tree over whole id-column batches.

The engine caches compiled plans keyed on the (structurally hashable) AST
and shares a **prefix memo** across plans: the near-identical candidate
queries of one question (same BGP prefix, different final predicate) reuse
the prefix's id-level solution set within a graph generation — see
:class:`PrefixMemo` and docs/performance.md ("Engine architecture").
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.obs.metrics import MetricsRegistry
from repro.rdf.graph import Graph
from repro.rdf.terms import BNode, IRI, Term, Triple, Variable
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
from repro.sparql.planner import plan_bgp

#: Slot value marking "this variable is not bound in this row".  Real
#: dictionary ids are non-negative; the graph's own ``-1`` ("constant not
#: in dictionary") never appears inside a row because absent constants are
#: filtered out before a pattern executes.
UNBOUND = -1

#: Row-count threshold above which a pattern joins by hashing one scan of
#: its matches instead of one index lookup per row.
HASH_JOIN_MIN_ROWS = 64

#: The hash join only pays off while the single scan is not much larger
#: than the row set it replaces per-row lookups for.
HASH_JOIN_MAX_SCAN_FACTOR = 8

#: Prefix solution sets above this many rows are not memoized (the memo
#: targets the QA candidate sets, whose prefixes are selective).
PREFIX_MEMO_MAX_ROWS = 8192

Row = tuple[int, ...]


class PrefixMemo:
    """Shared id-level solution sets for BGP prefixes, one graph generation.

    Candidate queries generated for one question differ only in a predicate
    or an orientation; their compiled BGPs therefore share join prefixes.
    The memo maps a canonical prefix key — the resolved (id, slot-name)
    shape of the first *k* planned patterns — to the id rows that prefix
    produced, so the next candidate resumes the join after the shared part
    instead of recomputing it.

    Entries are only valid for the generation they were computed in; the
    owning engine calls :meth:`invalidate` whenever the graph mutates (the
    same hook that clears the result cache), so a lookup can never observe
    rows from another generation.
    """

    def __init__(self, maxsize: int = 512) -> None:
        self._maxsize = maxsize
        self._data: dict[tuple, tuple[tuple[str, ...], tuple[Row, ...]]] = {}
        self._lock = threading.Lock()

    def get(self, key: tuple) -> tuple[tuple[str, ...], tuple[Row, ...]] | None:
        with self._lock:
            return self._data.get(key)

    def put(self, key: tuple, names: tuple[str, ...], rows: tuple[Row, ...]) -> None:
        if self._maxsize <= 0 or len(rows) > PREFIX_MEMO_MAX_ROWS:
            return
        with self._lock:
            if key not in self._data and len(self._data) >= self._maxsize:
                return  # full: keep the warm entries, skip the newcomer
            self._data[key] = (names, rows)

    def invalidate(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


class ExecContext:
    """Per-execution plumbing handed through the operator tree.

    ``filter_memo`` maps a compiled filter closure to its verdicts per
    distinct id combination; executions that share one dict — every shard
    of one scatter gather — evaluate each combination once.
    """

    __slots__ = ("graph", "stats", "prefix_memo", "filter_memo")

    def __init__(
        self,
        graph: Graph,
        stats: MetricsRegistry | None = None,
        prefix_memo: PrefixMemo | None = None,
        filter_memo: dict | None = None,
    ) -> None:
        self.graph = graph
        self.stats = stats
        self.prefix_memo = prefix_memo
        self.filter_memo = filter_memo


# ---------------------------------------------------------------------------
# Triple patterns
# ---------------------------------------------------------------------------


class CompiledPattern:
    """One triple pattern with variables mapped to slots and constants to ids.

    ``*_slot`` is the slot index for a variable position (None for a
    constant); ``*_id`` is the resolved dictionary id for a constant
    position (-1 while the constant is absent from the graph's dictionary;
    None for a variable).
    """

    __slots__ = (
        "s_slot", "p_slot", "o_slot",
        "s_term", "p_term", "o_term",
        "s_id", "p_id", "o_id",
        "variables",
    )

    def __init__(self, triple: Triple, slot_of: dict[Variable, int]) -> None:
        self.s_slot, self.s_term = self._position(triple.subject, slot_of)
        self.p_slot, self.p_term = self._position(triple.predicate, slot_of)
        self.o_slot, self.o_term = self._position(triple.object, slot_of)
        self.s_id: int | None = None
        self.p_id: int | None = None
        self.o_id: int | None = None
        self.variables = frozenset(triple.variables())

    @staticmethod
    def _position(
        slot: Term, slot_of: dict[Variable, int]
    ) -> tuple[int | None, Term | None]:
        if isinstance(slot, Variable):
            return slot_of[slot], None
        return None, slot

    def resolve(self, graph: Graph) -> None:
        """(Re-)resolve constant ids.  Already-resolved ids never change
        (the dictionary is append-only); only absent constants retry."""
        if self.s_term is not None and (self.s_id is None or self.s_id < 0):
            self.s_id = graph.lookup_id(self.s_term)
        if self.p_term is not None and (self.p_id is None or self.p_id < 0):
            self.p_id = graph.lookup_id(self.p_term)
        if self.o_term is not None and (self.o_id is None or self.o_id < 0):
            self.o_id = graph.lookup_id(self.o_term)

    def memo_key(self, names: dict[int, str]) -> tuple:
        """Canonical shape of the resolved pattern for the prefix memo.

        Constants contribute their dictionary id, variables their name (the
        candidate generator reuses variable names, which is what makes
        prefixes collide across candidates).  Absent constants contribute
        -1: any such pattern matches nothing, so key collisions between
        different absent terms are harmless (both memoize empty row sets).
        """
        return (
            self.s_id if self.s_slot is None else ("v", names[self.s_slot]),
            self.p_id if self.p_slot is None else ("v", names[self.p_slot]),
            self.o_id if self.o_slot is None else ("v", names[self.o_slot]),
        )

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
    decode: Callable[[int], Term],
    cells: list[Any] | None = None,
    slots_used: set[int] | None = None,
) -> Valuation:
    """Compile an expression into a closure over an id row.

    The closure raises :class:`SparqlTypeError` exactly where the
    AST-walking evaluator would; callers wrap it per SPARQL error scoping
    (filters fail, ORDER BY keys become unbound-kind).

    ``cells`` collects every id-equality fast-path closure in the tree —
    including ones nested under ``!``/``&&``/``||`` — so the plan can
    resolve their constant ids against the live graph before execution.

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

            def value_of(row: Row, slot: int = slot, name: str = term.name) -> Any:
                term_id = row[slot]
                if term_id == UNBOUND:
                    raise SparqlTypeError(f"unbound variable ?{name}")
                return decode(term_id)
            return value_of
        return lambda row: term

    if isinstance(expression, Comparison):
        fast = _compile_id_equality(expression, slot_of)
        if fast is not None:
            if cells is not None:
                cells.append(fast)
            if slots_used is not None:
                slots_used.add(fast.slot)
            return fast
        left = compile_expression(
            expression.left, slot_of, decode, cells, slots_used
        )
        right = compile_expression(
            expression.right, slot_of, decode, cells, slots_used
        )
        operator = expression.operator
        return lambda row: compare_values(operator, left(row), right(row))

    if isinstance(expression, BooleanOp):
        left = compile_expression(
            expression.left, slot_of, decode, cells, slots_used
        )
        right = compile_expression(
            expression.right, slot_of, decode, cells, slots_used
        )

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
            expression.operand, slot_of, decode, cells, slots_used
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
            compile_expression(argument, slot_of, decode, cells, slots_used)
            for argument in expression.arguments
        )
        return lambda row: apply_builtin(
            name, tuple(closure(row) for closure in argument_closures)
        )

    raise SparqlTypeError(f"cannot compile {type(expression).__name__}")


def _compile_id_equality(
    expression: Comparison, slot_of: dict[Variable, int]
) -> Valuation | None:
    """Fast path: ``?var = <iri>`` / ``?var != <iri>`` compare ids directly.

    Sound because dictionary encoding is injective and SPARQL defines
    IRI/BNode comparison as term equality; literals stay on the value path
    (distinct literal terms can compare equal by value).
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
    constant_box: list[int] = [UNBOUND]  # resolved lazily via closure cell

    def equals(row: Row, _box=constant_box) -> bool:
        term_id = row[slot]
        if term_id == UNBOUND:
            raise SparqlTypeError(f"unbound variable ?{name}")
        return (term_id != _box[0]) if negate else (term_id == _box[0])

    equals.constant = constant  # type: ignore[attr-defined]
    equals.constant_box = constant_box  # type: ignore[attr-defined]
    # Columnar metadata: the batch engine turns a top-level id-equality
    # filter into one whole-column mask instead of a per-row call.
    equals.slot = slot  # type: ignore[attr-defined]
    equals.negate = negate  # type: ignore[attr-defined]
    return equals


# ---------------------------------------------------------------------------
# Pattern-tree nodes (executed by repro.sparql.columnar)
# ---------------------------------------------------------------------------


class CompiledBGP:
    """A basic graph pattern: its patterns in planned join order.

    ``memo_eligible`` marks the first BGP of the top-level group, the one
    whose join prefixes the engine's :class:`PrefixMemo` shares across
    candidate queries.
    """

    __slots__ = ("patterns", "memo_eligible")

    def __init__(self, patterns: list[CompiledPattern], memo_eligible: bool) -> None:
        self.patterns = patterns
        self.memo_eligible = memo_eligible


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
    """The compiled id-space form of one SELECT or ASK query.

    Compiled once per structurally distinct AST (the engine caches plans on
    the frozen AST's own hash) and executed many times by its subclass
    :class:`repro.sparql.columnar.ColumnarQuery`; the only per-generation
    work is re-resolving constants that were absent from the dictionary
    when the plan was built.
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
        self._id_equality_cells: list[Any] = []
        decode = graph.decode_id
        self.root = self._compile_group(
            query.where, graph, decode, set(), top_level=True
        )
        if not self.is_ask:
            self._compile_select_tail(query, decode)
        self._resolved_generation = -1
        self._resolve(graph)

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
        self,
        group: Group,
        graph: Graph,
        decode: Callable[[int], Term],
        bound: set[Variable],
        top_level: bool = False,
    ) -> CompiledGroup:
        """Compile one group, tracking which variables are *definitely*
        bound at each child (intersection semantics: OPTIONAL guarantees
        nothing, UNION guarantees the branches' intersection)."""
        children: list[Any] = []
        filters: list[Valuation] = []
        first = True
        for child in group.patterns:
            if isinstance(child, BGP):
                compiled = self._compile_bgp(
                    child, graph, bound, memo_eligible=top_level and first
                )
                children.append(compiled)
                for triple in child.triples:
                    bound |= triple.variables()
            elif isinstance(child, Filter):
                filters.append(
                    self._register_filter(child.expression, decode)
                )
                continue  # filters don't advance the child sequence
            elif isinstance(child, OptionalPattern):
                children.append(
                    CompiledOptional(
                        self._compile_group(
                            child.pattern, graph, decode, set(bound)
                        )
                    )
                )
            elif isinstance(child, UnionPattern):
                left_bound = set(bound)
                right_bound = set(bound)
                compiled_union = CompiledUnion(
                    self._compile_group(child.left, graph, decode, left_bound),
                    self._compile_group(child.right, graph, decode, right_bound),
                )
                children.append(compiled_union)
                bound |= left_bound & right_bound
            elif isinstance(child, Group):
                children.append(
                    self._compile_group(child, graph, decode, bound)
                )
            else:
                raise SparqlError(
                    f"unknown pattern node {type(child).__name__}"
                )
            first = False
        return CompiledGroup(children, filters)

    def _register_filter(
        self, expression: Expression, decode: Callable[[int], Term]
    ) -> Valuation:
        slots_used: set[int] = set()
        closure = compile_expression(
            expression, self.slot_of, decode, self._id_equality_cells,
            slots_used,
        )
        # The columnar engine memoizes closure results per distinct value
        # combination of exactly these slots (see repro.sparql.columnar).
        closure.slots_used = frozenset(slots_used)  # type: ignore[attr-defined]
        return closure

    def _compile_bgp(
        self,
        bgp: BGP,
        graph: Graph,
        bound: set[Variable],
        memo_eligible: bool,
    ) -> CompiledBGP:
        ordered = plan_bgp(graph, bgp.triples, bound)
        compiled = [CompiledPattern(triple, self.slot_of) for triple in ordered]
        self._patterns.extend(compiled)
        return CompiledBGP(compiled, memo_eligible)

    def _compile_select_tail(
        self, query: SelectQuery, decode: Callable[[int], Term]
    ) -> None:
        # Each ORDER BY key: its closure, DESC flag, and the slot of a
        # plain-variable key (None for any other key), which lets the
        # columnar engine gather shipped order ranks instead of
        # evaluating the closure.
        self._order_keys: list[tuple[Valuation, bool, int | None]] = [
            (
                self._register_filter(condition.expression, decode),
                condition.descending,
                self.slot_of.get(condition.expression.term)
                if isinstance(condition.expression, TermExpr)
                else None,
            )
            for condition in query.order_by
        ]
        self._decode = decode

    # -- constants -----------------------------------------------------

    def _resolve(self, graph: Graph) -> None:
        generation = graph.generation
        if generation == self._resolved_generation:
            return
        for pattern in self._patterns:
            pattern.resolve(graph)
        for closure in self._id_equality_cells:
            box = closure.constant_box
            if box[0] == UNBOUND:
                box[0] = graph.lookup_id(closure.constant)
        self._resolved_generation = generation


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
    structurally hashable, so the scatter coordinator compiles and caches
    it like any other plan.  ``names`` is the name-sorted set of
    variables the star binds.
    """

    __slots__ = ("variable", "query", "names")

    def __init__(
        self,
        variable: Variable,
        triples: tuple[Triple, ...],
        filters: tuple = (),
    ) -> None:
        self.variable = variable
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
        StarSlice(subject, star_triples[index], tuple(star_filters[index]))
        for index, subject in enumerate(subjects)
    )
    sliced = TwoStarSlice(stars, tuple(residual))  # type: ignore[arg-type]
    if not sliced.join_names:
        return None
    return sliced
