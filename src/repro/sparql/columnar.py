"""Columnar batch execution for compiled id-space plans.

:mod:`repro.sparql.compiler` turns a query into a pattern tree over
dense variable slots — slot layout, planned pattern order, expression
closures, prefix-memo keys.  This module executes that tree, batch at a
time, and is the only executor of id-space plans (the term-space
evaluator in :mod:`repro.sparql.executor` remains as the reference
oracle):

* a solution set is a :class:`ColumnBatch`: one ``array('q')`` id column
  per variable slot, with :data:`~repro.sparql.compiler.UNBOUND` (-1)
  holes — no per-row tuple objects between operators;
* joins move whole columns: a **hash join** probes one key column against
  a single scan, a **sort-merge join** (single-key, numpy fast path)
  sorts the scan side once and binary-searches every probe key in one
  vectorized shot, and a **radix-partitioned join** splits both sides by
  key radix before hashing partition-wise — the strategy is chosen by
  :func:`repro.sparql.planner.choose_batch_join` once the existing
  hash-join admission thresholds are met;
* FILTERs evaluate over whole columns: ``?var = <iri>`` id-equality
  becomes one column mask, everything else is memoized per *distinct*
  value combination of the slots the expression actually reads
  (``closure.slots_used``), so a filter runs once per distinct key, not
  once per row;
* ORDER BY sorts in rank space: every key becomes an int64 order-rank
  column (:mod:`repro.rdf.order`) — gathered from the rank column a
  segment dictionary ships for a plain-variable key, ranked over the
  key's distinct values otherwise — and one stable ``lexsort`` orders
  the rows under those columns plus the id tie-break;
* ids decode to Terms only at final projection, once per distinct id of
  the rows returned.

The operator boundary is explicit — batch in, batch out, each operator a
pure function of ``(graph, batch, pattern)`` — so a native (C/Rust)
backend could replace an operator without touching compilation.

**numpy fast path** — when numpy is importable, gathers, masks and the
sort-merge join run vectorized over zero-copy ``int64`` views of the id
columns; without numpy every operator falls back to pure-python code with
identical semantics.  Tests force the fallback by monkeypatching the
module's ``_np`` attribute to ``None``.

**Observability** — operators publish ``sparql.columnar.*`` counters
(batches, rows, row widths, per-strategy join counts, filter/ORDER memo
hits, rows ranked from shipped ranks) into the engine's
:class:`repro.obs.metrics.MetricsRegistry`; see docs/observability.md.

Correctness is pinned by the differential harness
(``tests/sparql/test_columnar_differential.py``): term-space oracle vs
columnar, over seeded random queries, with identical decoded solutions —
ORDER BY ties are deterministic across both engines (stable sort +
id-order tie-break, see docs/performance.md).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Any, Callable, Iterable, Sequence

try:  # optional vectorized backend; every operator has a pure-python twin
    import numpy as _np  # type: ignore
except ImportError:  # pragma: no cover - exercised via monkeypatch in tests
    _np = None

from repro.obs.metrics import MetricsRegistry
from repro.rdf.datatypes import XSD_INTEGER
from repro.rdf.graph import Graph
from repro.rdf.order import order_ranks
from repro.rdf.terms import Literal, Variable
from repro.sparql import compiler as _compiler
from repro.sparql import planner as _planner
from repro.sparql.ast import AskQuery, CountAggregate, SelectQuery
from repro.sparql.compiler import (
    UNBOUND,
    CompiledBGP,
    CompiledGroup,
    CompiledOptional,
    CompiledPattern,
    CompiledQuery,
    CompiledUnion,
    ExecContext,
    Row,
)
from repro.sparql.errors import SparqlError, SparqlTypeError
from repro.sparql.functions import effective_boolean
from repro.sparql.results import AskResult, SelectResult

#: Below this many rows numpy conversions cost more than they save; the
#: pure-python paths handle small batches.
NUMPY_MIN_ROWS = 64

_MISSING = object()

#: Column boundness states (see :func:`column_state`).
BOUND, UNBOUND_COL, MIXED = "bound", "unbound", "mixed"


def numpy_enabled() -> bool:
    """Whether the vectorized fast path is active (numpy importable and
    not disabled by a test monkeypatch)."""
    return _np is not None


def _count(stats: MetricsRegistry | None, name: str, amount: int = 1) -> None:
    if stats is not None and amount:
        stats.inc(name, amount)


# ---------------------------------------------------------------------------
# The batch container
# ---------------------------------------------------------------------------


class ColumnBatch:
    """A solution set as parallel id columns.

    ``columns[slot][i]`` is the id bound to variable slot ``slot`` in row
    ``i`` (:data:`UNBOUND` when the row does not bind that slot).
    ``length`` is tracked explicitly so zero-width batches (queries whose
    patterns are all ground) still carry a row count.
    """

    __slots__ = ("width", "length", "columns")

    def __init__(self, width: int, columns: list[array], length: int) -> None:
        self.width = width
        self.columns = columns
        self.length = length

    @classmethod
    def empty(cls, width: int) -> "ColumnBatch":
        return cls(width, [array("q") for __ in range(width)], 0)

    @classmethod
    def seed(cls, width: int) -> "ColumnBatch":
        """The single all-unbound row every query execution starts from."""
        return cls(width, [array("q", (UNBOUND,)) for __ in range(width)], 1)

    @classmethod
    def from_rows(cls, rows: Sequence[Row], width: int) -> "ColumnBatch":
        columns = [
            array("q", (row[slot] for row in rows)) for slot in range(width)
        ]
        return cls(width, columns, len(rows))

    def row(self, index: int) -> Row:
        return tuple(column[index] for column in self.columns)

    def rows(self) -> list[Row]:
        """Materialise the batch as row tuples (memo/fallback boundary)."""
        if self.width == 0:
            return [()] * self.length
        return list(zip(*self.columns))

    def gather(self, indexes) -> "ColumnBatch":
        """A new batch holding the given row indexes, in order."""
        length = len(indexes)
        if self.width == 0:
            return ColumnBatch(0, [], length)
        np = _np
        if np is not None and length >= NUMPY_MIN_ROWS:
            if not isinstance(indexes, np.ndarray):
                indexes = np.fromiter(indexes, dtype=np.int64, count=length)
            columns = []
            for column in self.columns:
                view = np.frombuffer(column, dtype=np.int64)
                out = array("q")
                out.frombytes(view[indexes].astype(np.int64).tobytes())
                columns.append(out)
            return ColumnBatch(self.width, columns, length)
        columns = [
            array("q", map(column.__getitem__, indexes))
            for column in self.columns
        ]
        return ColumnBatch(self.width, columns, length)


def concat(batches: Sequence[ColumnBatch], width: int) -> ColumnBatch:
    """Concatenate batches row-wise (UNION / OPTIONAL reassembly)."""
    length = sum(batch.length for batch in batches)
    if width == 0:
        return ColumnBatch(0, [], length)
    columns = [array("q") for __ in range(width)]
    for batch in batches:
        for slot in range(width):
            columns[slot].extend(batch.columns[slot])
    return ColumnBatch(width, columns, length)


def column_state(column: array, length: int) -> str:
    """Classify a column: all ids bound, all unbound, or mixed.

    The batch operators require homogeneous boundness per column (the
    conjunctive hot path always is); a mixed column — possible below
    OPTIONAL/UNION — routes the whole batch through the row-at-a-time
    fallback (:meth:`CompiledPattern.extend`), which handles any boundness.
    """
    if length == 0:
        return UNBOUND_COL
    np = _np
    if np is not None and length >= NUMPY_MIN_ROWS:
        view = np.frombuffer(column, dtype=np.int64)
        if view.min() != UNBOUND:
            return BOUND
        return UNBOUND_COL if view.max() == UNBOUND else MIXED
    saw_bound = saw_unbound = False
    for value in column:
        if value == UNBOUND:
            saw_unbound = True
        else:
            saw_bound = True
        if saw_bound and saw_unbound:
            return MIXED
    return BOUND if saw_bound else UNBOUND_COL


def radix_partition(keys: Iterable, partitions: int | None = None) -> list[list[int]]:
    """Partition key positions by radix: ``hash(key) & (P - 1)``.

    Integer keys use their own value (ids are non-negative, so the masked
    value is already in range); composite tuple keys use ``hash``.  Every
    input index lands in exactly one partition — the property suite
    asserts disjointness and completeness.
    """
    count = partitions if partitions is not None else _planner.RADIX_JOIN_PARTITIONS
    mask = count - 1
    parts: list[list[int]] = [[] for __ in range(count)]
    for index, key in enumerate(keys):
        value = key if isinstance(key, int) else hash(key)
        parts[value & mask].append(index)
    return parts


# ---------------------------------------------------------------------------
# Scan materialisation
# ---------------------------------------------------------------------------


def _materialize_scan(
    graph: Graph,
    pattern: CompiledPattern,
    constraints: Sequence[tuple[int, int]],
) -> list[tuple[int, int, int]]:
    """One scan of the pattern's matches, with repeated-variable positions
    (``?x ?p ?x`` where ``?x`` is free) pre-filtered to agree."""
    matches = graph.match_ids(pattern.s_id, pattern.p_id, pattern.o_id)
    if constraints:
        return [
            match
            for match in matches
            if all(match[a] == match[b] for a, b in constraints)
        ]
    return list(matches)


def _scan_column(
    scan_rows: Sequence[tuple[int, int, int]], position: int
) -> array:
    return array("q", (match[position] for match in scan_rows))


def _dedup_free(
    free_items: Sequence[tuple[int, int]],
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Split free (position, slot) pairs into one writer per slot plus
    must-agree position constraints for repeated slots."""
    unique: list[tuple[int, int]] = []
    first_position: dict[int, int] = {}
    constraints: list[tuple[int, int]] = []
    for position, slot in free_items:
        if slot in first_position:
            constraints.append((first_position[slot], position))
        else:
            first_position[slot] = position
            unique.append((position, slot))
    return unique, constraints


# ---------------------------------------------------------------------------
# Join operators (batch in -> batch out)
# ---------------------------------------------------------------------------


def _assemble(
    batch: ColumnBatch,
    scan_rows: Sequence[tuple[int, int, int]],
    probe_idx: Sequence[int],
    scan_idx: Sequence[int],
    free_items: Sequence[tuple[int, int]],
) -> ColumnBatch:
    """Build the join output: gather surviving probe rows, then overwrite
    each free slot's column from the matching scan rows."""
    out = batch.gather(probe_idx)
    for position, slot in free_items:
        out.columns[slot] = array(
            "q", (scan_rows[j][position] for j in scan_idx)
        )
    return out


def extend_index_loop(
    graph: Graph, batch: ColumnBatch, pattern: CompiledPattern
) -> ColumnBatch:
    """Row-at-a-time fallback: the nested-index-loop join of
    :meth:`CompiledPattern.extend`, re-batched at the boundary."""
    rows = pattern.extend(batch.rows(), graph)
    return ColumnBatch.from_rows(rows, batch.width)


def extend_cartesian(
    graph: Graph,
    batch: ColumnBatch,
    pattern: CompiledPattern,
    free_items: Sequence[tuple[int, int]],
    constraints: Sequence[tuple[int, int]],
) -> ColumnBatch:
    """No bound join key: one shared scan crossed with every input row.

    Covers the leaf case (the all-unbound seed row — the common path that
    materialises the first pattern straight into columns) and genuine
    disconnected-pattern products.
    """
    scan_rows = _materialize_scan(graph, pattern, constraints)
    matches = len(scan_rows)
    if matches == 0:
        return ColumnBatch.empty(batch.width)
    length = batch.length
    free_slot_position = {slot: position for position, slot in free_items}
    columns: list[array] = []
    for slot in range(batch.width):
        if slot in free_slot_position:
            values = _scan_column(scan_rows, free_slot_position[slot])
            columns.append(values if length == 1 else values * length)
        else:
            column = batch.columns[slot]
            if length == 1:
                columns.append(array("q", (column[0],)) * matches)
            else:
                out = array("q")
                for value in column:
                    out.extend(array("q", (value,)) * matches)
                columns.append(out)
    return ColumnBatch(batch.width, columns, length * matches)


def extend_hash(
    graph: Graph,
    batch: ColumnBatch,
    pattern: CompiledPattern,
    bound_items: Sequence[tuple[int, int]],
    free_items: Sequence[tuple[int, int]],
    constraints: Sequence[tuple[int, int]],
) -> ColumnBatch:
    """Hash join: one scan of the pattern hashed on the bound positions,
    one probe per input row against the key column(s)."""
    scan_rows = _materialize_scan(graph, pattern, constraints)
    if not scan_rows:
        return ColumnBatch.empty(batch.width)
    probe_idx: list[int] = []
    scan_idx: list[int] = []
    if len(bound_items) == 1:
        position, slot = bound_items[0]
        table: dict[int, list[int]] = {}
        for j, match in enumerate(scan_rows):
            table.setdefault(match[position], []).append(j)
        get = table.get
        column = batch.columns[slot]
        for i in range(batch.length):
            bucket = get(column[i])
            if bucket:
                probe_idx.extend([i] * len(bucket))
                scan_idx.extend(bucket)
    else:
        positions = [position for position, __ in bound_items]
        key_columns = [batch.columns[slot] for __, slot in bound_items]
        table_t: dict[tuple[int, ...], list[int]] = {}
        for j, match in enumerate(scan_rows):
            key = tuple(match[position] for position in positions)
            table_t.setdefault(key, []).append(j)
        get_t = table_t.get
        for i, key in enumerate(zip(*key_columns)):
            bucket = get_t(key)
            if bucket:
                probe_idx.extend([i] * len(bucket))
                scan_idx.extend(bucket)
    if not probe_idx:
        return ColumnBatch.empty(batch.width)
    return _assemble(batch, scan_rows, probe_idx, scan_idx, free_items)


def extend_merge(
    graph: Graph,
    batch: ColumnBatch,
    pattern: CompiledPattern,
    bound_items: Sequence[tuple[int, int]],
    free_items: Sequence[tuple[int, int]],
    constraints: Sequence[tuple[int, int]],
) -> ColumnBatch:
    """Sort-merge join on a single key: sort the scan side once, then
    locate every probe key by binary search.

    The numpy path is fully vectorized — ``argsort`` + two
    ``searchsorted`` calls + index arithmetic produce the complete
    (probe, scan) match pairing with no per-row python.  The pure-python
    path bisects per probe row over the same sorted scan, with identical
    output ordering (probe order, then scan sort order within a key).
    """
    if len(bound_items) != 1:
        raise SparqlError("merge join requires exactly one join key")
    position, slot = bound_items[0]
    scan_rows = _materialize_scan(graph, pattern, constraints)
    matches = len(scan_rows)
    if matches == 0:
        return ColumnBatch.empty(batch.width)
    length = batch.length
    np = _np
    if np is not None and length >= 2 and matches >= 2:
        scan_keys = np.fromiter(
            (match[position] for match in scan_rows), np.int64, matches
        )
        order = np.argsort(scan_keys, kind="stable")
        sorted_keys = scan_keys[order]
        probe = np.frombuffer(batch.columns[slot], dtype=np.int64)
        left = np.searchsorted(sorted_keys, probe, side="left")
        right = np.searchsorted(sorted_keys, probe, side="right")
        counts = right - left
        total = int(counts.sum())
        if total == 0:
            return ColumnBatch.empty(batch.width)
        probe_idx = np.repeat(np.arange(length, dtype=np.int64), counts)
        starts = np.repeat(left, counts)
        run_starts = np.repeat(np.cumsum(counts) - counts, counts)
        within = np.arange(total, dtype=np.int64) - run_starts
        scan_positions = order[starts + within]
        out = batch.gather(probe_idx)
        for free_position, free_slot in free_items:
            values = np.fromiter(
                (match[free_position] for match in scan_rows), np.int64, matches
            )[scan_positions]
            column = array("q")
            column.frombytes(values.astype(np.int64).tobytes())
            out.columns[free_slot] = column
        return out
    keyed = sorted((match[position], j) for j, match in enumerate(scan_rows))
    keys = [key for key, __ in keyed]
    column = batch.columns[slot]
    probe_idx_l: list[int] = []
    scan_idx_l: list[int] = []
    for i in range(length):
        key = column[i]
        lo = bisect_left(keys, key)
        if lo == matches or keys[lo] != key:
            continue
        hi = bisect_right(keys, key, lo)
        probe_idx_l.extend([i] * (hi - lo))
        scan_idx_l.extend(keyed[t][1] for t in range(lo, hi))
    if not probe_idx_l:
        return ColumnBatch.empty(batch.width)
    return _assemble(batch, scan_rows, probe_idx_l, scan_idx_l, free_items)


def extend_radix(
    graph: Graph,
    batch: ColumnBatch,
    pattern: CompiledPattern,
    bound_items: Sequence[tuple[int, int]],
    free_items: Sequence[tuple[int, int]],
    constraints: Sequence[tuple[int, int]],
) -> ColumnBatch:
    """Radix-partitioned hash join for large intermediates: both sides are
    split by key radix, then hash-joined partition by partition, keeping
    every hash table small.  Output order is partition-major (the ORDER BY
    tie-break makes final ordering deterministic regardless)."""
    scan_rows = _materialize_scan(graph, pattern, constraints)
    if not scan_rows:
        return ColumnBatch.empty(batch.width)
    positions = [position for position, __ in bound_items]
    if len(positions) == 1:
        p0 = positions[0]
        scan_keys: Sequence = [match[p0] for match in scan_rows]
        probe_keys: Sequence = batch.columns[bound_items[0][1]]
    else:
        scan_keys = [
            tuple(match[position] for position in positions)
            for match in scan_rows
        ]
        probe_keys = list(
            zip(*(batch.columns[slot] for __, slot in bound_items))
        )
    scan_parts = radix_partition(scan_keys)
    probe_parts = radix_partition(probe_keys)
    probe_idx: list[int] = []
    scan_idx: list[int] = []
    for part in range(len(scan_parts)):
        scan_members = scan_parts[part]
        probe_members = probe_parts[part]
        if not scan_members or not probe_members:
            continue
        table: dict = {}
        for j in scan_members:
            table.setdefault(scan_keys[j], []).append(j)
        get = table.get
        for i in probe_members:
            bucket = get(probe_keys[i])
            if bucket:
                probe_idx.extend([i] * len(bucket))
                scan_idx.extend(bucket)
    if not probe_idx:
        return ColumnBatch.empty(batch.width)
    return _assemble(batch, scan_rows, probe_idx, scan_idx, free_items)


_JOIN_OPS: dict[str, Callable] = {
    "hash": extend_hash,
    "merge": extend_merge,
    "radix": extend_radix,
}


def join_pattern(
    context: ExecContext,
    batch: ColumnBatch,
    pattern: CompiledPattern,
) -> ColumnBatch:
    """Join one compiled pattern into the batch, picking the operator.

    Admission: per-row index lookups for batches below
    ``HASH_JOIN_MIN_ROWS`` or scans larger than
    ``HASH_JOIN_MAX_SCAN_FACTOR`` times the batch, a batch join otherwise
    — and then :func:`repro.sparql.planner.choose_batch_join` selects
    hash, merge, or radix.
    """
    graph = context.graph
    stats = context.stats
    length = batch.length
    if length == 0:
        return batch
    _count(stats, "sparql.columnar.batches")
    _count(stats, "sparql.columnar.rows_in", length)
    _count(stats, "sparql.columnar.row_width", batch.width)

    var_items = [
        (position, slot)
        for position, slot in (
            (0, pattern.s_slot), (1, pattern.p_slot), (2, pattern.o_slot)
        )
        if slot is not None
    ]
    if not var_items:
        # Fully ground pattern: every row survives iff the triple exists.
        if graph.count_ids(pattern.s_id, pattern.p_id, pattern.o_id):
            return batch
        return ColumnBatch.empty(batch.width)

    states = {}
    for __, slot in var_items:
        if slot not in states:
            states[slot] = column_state(batch.columns[slot], length)
    if any(state == MIXED for state in states.values()):
        # Heterogeneous boundness (OPTIONAL/UNION streams): per-row path.
        _count(stats, "sparql.columnar.joins.mixed_fallback")
        return extend_index_loop(graph, batch, pattern)

    bound_items = [
        (position, slot)
        for position, slot in var_items
        if states[slot] == BOUND
    ]
    free_items = [
        (position, slot)
        for position, slot in var_items
        if states[slot] != BOUND
    ]
    unique_free, constraints = _dedup_free(free_items)

    if not bound_items:
        _count(stats, "sparql.columnar.joins.cartesian")
        return extend_cartesian(graph, batch, pattern, unique_free, constraints)
    if length < _compiler.HASH_JOIN_MIN_ROWS:
        _count(stats, "sparql.columnar.joins.index_loop")
        return extend_index_loop(graph, batch, pattern)
    scan = graph.count_ids(pattern.s_id, pattern.p_id, pattern.o_id)
    if scan > length * _compiler.HASH_JOIN_MAX_SCAN_FACTOR:
        _count(stats, "sparql.columnar.joins.index_loop")
        return extend_index_loop(graph, batch, pattern)
    strategy = _planner.choose_batch_join(
        length, scan, len(bound_items), _np is not None
    )
    _count(stats, f"sparql.columnar.joins.{strategy}")
    out = _JOIN_OPS[strategy](
        graph, batch, pattern, bound_items, unique_free, constraints
    )
    _count(stats, "sparql.columnar.rows_out", out.length)
    return out


# ---------------------------------------------------------------------------
# Columnar FILTER evaluation
# ---------------------------------------------------------------------------


def filter_id_equality(
    batch: ColumnBatch, closure, stats: MetricsRegistry | None = None
) -> ColumnBatch:
    """Vectorized ``?var = <iri>`` / ``!=`` filter: one column mask.

    An unbound id fails the filter (the row closure raises
    :class:`SparqlTypeError` there, which SPARQL maps to "filter fails").
    """
    column = batch.columns[closure.slot]
    target = closure.constant_box[0]
    negate = closure.negate
    length = batch.length
    _count(stats, "sparql.columnar.filter.vectorized_rows", length)
    np = _np
    if np is not None and length >= NUMPY_MIN_ROWS:
        view = np.frombuffer(column, dtype=np.int64)
        bound_mask = view != UNBOUND
        if negate:
            mask = bound_mask & (view != target)
        else:
            mask = bound_mask & (view == target)
        return batch.gather(np.nonzero(mask)[0])
    # The UNBOUND guard matters even for the equality case: an absent
    # constant resolves to -1, which must not match unbound (-1) cells.
    if negate:
        keep = [
            i for i, value in enumerate(column)
            if value != UNBOUND and value != target
        ]
    else:
        keep = [
            i for i, value in enumerate(column)
            if value != UNBOUND and value == target
        ]
    return batch.gather(keep)


def filter_memoized(
    batch: ColumnBatch,
    closure,
    width: int,
    stats: MetricsRegistry | None = None,
    memo: dict | None = None,
) -> ColumnBatch:
    """General filter over a batch, memoized per distinct slot values.

    The compiled closure only reads ``closure.slots_used``; its verdict is
    therefore a pure function of those slots' ids, evaluated once per
    distinct combination and reused for every duplicate row.  ``memo``
    (closure -> verdicts) carries the verdicts across batches: ids are
    global dictionary ids, so a verdict holds on every shard of a KB.
    """
    used = getattr(closure, "slots_used", None)
    slots = sorted(used) if used is not None else list(range(width))
    template = [UNBOUND] * width
    if not slots:
        try:
            verdict = effective_boolean(closure(tuple(template)))
        except SparqlTypeError:
            verdict = False
        _count(stats, "sparql.columnar.filter.memo_rows", batch.length)
        return batch if verdict else ColumnBatch.empty(width)
    key_columns = [batch.columns[slot] for slot in slots]
    cache: dict[tuple[int, ...], bool] = (
        {} if memo is None else memo.setdefault(closure, {})
    )
    keep: list[int] = []
    evaluated = 0
    for i, key in enumerate(zip(*key_columns)):
        verdict = cache.get(key, _MISSING)
        if verdict is _MISSING:
            for slot, value in zip(slots, key):
                template[slot] = value
            try:
                verdict = effective_boolean(closure(tuple(template)))
            except SparqlTypeError:
                verdict = False
            cache[key] = verdict
            evaluated += 1
        if verdict:
            keep.append(i)
    _count(stats, "sparql.columnar.filter.evaluated", evaluated)
    _count(stats, "sparql.columnar.filter.memo_rows", batch.length - evaluated)
    return batch.gather(keep)


def apply_filters(
    filters: Sequence, batch: ColumnBatch, width: int,
    stats: MetricsRegistry | None = None, memo: dict | None = None,
) -> ColumnBatch:
    for closure in filters:
        if batch.length == 0:
            break
        if (
            getattr(closure, "slot", None) is not None
            and getattr(closure, "constant_box", None) is not None
        ):
            batch = filter_id_equality(batch, closure, stats)
        else:
            batch = filter_memoized(batch, closure, width, stats, memo)
    return batch


# ---------------------------------------------------------------------------
# ORDER BY in rank space
# ---------------------------------------------------------------------------


def gather_ranks(column, ranks, length: int) -> Sequence[int]:
    """The order ranks of an id column, read from a shipped rank column
    (``ranks[id]``); :data:`UNBOUND` stays -1, below every rank."""
    np = _np
    if np is not None and length >= NUMPY_MIN_ROWS:
        ids = np.frombuffer(column, dtype=np.int64)
        return np.where(
            ids == UNBOUND, UNBOUND, np.frombuffer(ranks, dtype=np.int64)[ids]
        )
    return array(
        "q", (UNBOUND if value == UNBOUND else ranks[value] for value in column)
    )


def negate(column: Sequence[int]) -> Sequence[int]:
    """A rank column for a DESC key: the ascending column negated."""
    np = _np
    if np is not None and isinstance(column, np.ndarray):
        return -column
    return array("q", (-value for value in column))


def sort_permutation(columns: Sequence[Sequence[int]], length: int):
    """The stable row permutation sorting rows by int64 columns, the
    first column most significant: ``np.lexsort`` when numpy is present,
    ``sorted`` over row tuples otherwise (same permutation)."""
    if not columns:
        return range(length)
    np = _np
    if np is not None and length >= NUMPY_MIN_ROWS:
        return np.lexsort(
            [np.asarray(column, dtype=np.int64) for column in reversed(columns)]
        )
    rows = list(zip(*columns))
    return sorted(range(length), key=rows.__getitem__)


def gather_rows(columns: Sequence[Sequence[int]], order) -> list[tuple]:
    """The id rows of ``columns`` at the row indexes ``order`` (a range,
    a numpy index array or a list), as tuples of python ints."""
    if not columns:
        return [()] * len(order)
    if isinstance(order, range):
        return list(zip(*(column[order.start:order.stop] for column in columns)))
    np = _np
    if np is not None and isinstance(order, np.ndarray):
        return list(
            zip(*(np.asarray(column, dtype=np.int64)[order].tolist()
                  for column in columns))
        )
    return list(zip(*([column[i] for i in order] for column in columns)))


def _slice(rows, offset: int, limit: int | None):
    if offset:
        rows = rows[offset:]
    if limit is not None:
        rows = rows[:limit]
    return rows


# ---------------------------------------------------------------------------
# Pattern-tree execution
# ---------------------------------------------------------------------------


def _run_node(node, context: ExecContext, batch: ColumnBatch, plan) -> ColumnBatch:
    if isinstance(node, CompiledBGP):
        return _run_bgp(node, context, batch, plan)
    if isinstance(node, CompiledGroup):
        return _run_group(node, context, batch, plan)
    if isinstance(node, CompiledOptional):
        return _run_optional(node, context, batch, plan)
    if isinstance(node, CompiledUnion):
        left = _run_group(node.left, context, batch, plan)
        right = _run_group(node.right, context, batch, plan)
        return concat((left, right), batch.width)
    raise SparqlError(f"unknown compiled node {type(node).__name__}")


def _run_group(
    group: CompiledGroup, context: ExecContext, batch: ColumnBatch, plan
) -> ColumnBatch:
    for child in group.children:
        batch = _run_node(child, context, batch, plan)
        if batch.length == 0:
            break
    if batch.length and group.filters:
        batch = apply_filters(
            group.filters, batch, plan.width, context.stats,
            context.filter_memo,
        )
    return batch


def _run_optional(
    node: CompiledOptional, context: ExecContext, batch: ColumnBatch, plan
) -> ColumnBatch:
    # Left join, one input row at a time: a row keeps its extensions
    # when the subgroup matches, itself otherwise.
    pieces: list[ColumnBatch] = []
    for i in range(batch.length):
        single = batch.gather((i,))
        extended = _run_group(node.group, context, single, plan)
        pieces.append(extended if extended.length else single)
    return concat(pieces, batch.width)


def _resume_from_memo_batch(
    node: CompiledBGP, context: ExecContext, memo, keys: list[tuple], plan
) -> tuple[ColumnBatch | None, int]:
    """Resume from the longest memoized prefix, rebuilt straight into
    columns; ``(None, 0)`` when no prefix is memoized."""
    stats = context.stats
    for length in range(len(node.patterns) - 1, 0, -1):
        hit = memo.get(tuple(keys[:length]))
        if hit is None:
            continue
        if stats is not None:
            stats.inc("sparql.prefix_memo.hits")
        names, stored = hit
        slots = [plan.slot_by_name[name] for name in names]
        count = len(stored)
        # Sharing one all-UNBOUND column across slots is safe: operators
        # never mutate a column in place, they only build fresh arrays.
        unbound_column = array("q", (UNBOUND,)) * count
        columns = [unbound_column] * plan.width
        if count:
            for slot, values in zip(slots, zip(*stored)):
                columns[slot] = array("q", values)
        return ColumnBatch(plan.width, columns, count), length
    if stats is not None:
        stats.inc("sparql.prefix_memo.misses")
    return None, 0


def _prefix_names(prefix_keys: tuple) -> tuple[str, ...]:
    """The name-sorted variables a memoized prefix binds."""
    return tuple(
        sorted(
            {
                position[1]
                for pattern_key in prefix_keys
                for position in pattern_key
                if isinstance(position, tuple)
            }
        )
    )


def _store_prefix(memo, key: tuple, rows: list[Row], plan) -> None:
    """Store a row-carrier prefix's rows projected to its own bound
    variables."""
    names = _prefix_names(key)
    slots = [plan.slot_by_name[name] for name in names]
    projected = tuple(tuple(row[slot] for slot in slots) for row in rows)
    memo.put(key, names, projected)


def _store_prefix_batch(memo, key: tuple, batch: ColumnBatch, plan) -> None:
    """Batch form of :func:`_store_prefix`: project the prefix's bound
    columns and zip them into the memo's row format."""
    names = _prefix_names(key)
    slots = [plan.slot_by_name[name] for name in names]
    if slots:
        projected = tuple(zip(*(batch.columns[slot] for slot in slots)))
    else:
        projected = ((),) * batch.length
    memo.put(key, names, projected)


def _has_bound_cell(batch: ColumnBatch) -> bool:
    return any(
        value != UNBOUND for column in batch.columns for value in column
    )


def _run_bgp(
    node: CompiledBGP, context: ExecContext, batch: ColumnBatch, plan
) -> ColumnBatch:
    if batch.length == 0:
        return batch
    patterns = node.patterns
    memo = context.prefix_memo if node.memo_eligible else None
    keys: list[tuple] | None = None
    start = 0
    if memo is not None and batch.length == 1 and len(patterns) > 1:
        keys = [pattern.memo_key(plan.slot_names) for pattern in patterns]
        resumed, start = _resume_from_memo_batch(
            node, context, memo, keys, plan
        )
        if resumed is not None:
            batch = resumed
    # Row-carrier mode: below the hash-join admission threshold the batch
    # conversions cost more than they save, so small *joined* intermediates
    # (at least one bound cell — the all-unbound seed stays columnar, its
    # first pattern materialises straight into columns) ride as plain row
    # tuples and promote back to columns once they outgrow the threshold.
    rows: list[Row] | None = None
    for index in range(start, len(patterns)):
        pattern = patterns[index]
        if rows is not None and len(rows) >= _compiler.HASH_JOIN_MIN_ROWS:
            batch = ColumnBatch.from_rows(rows, plan.width)
            rows = None
        if (
            rows is None
            and 0 < batch.length < _compiler.HASH_JOIN_MIN_ROWS
            and _has_bound_cell(batch)
        ):
            rows = batch.rows()
        if rows is not None:
            _count(context.stats, "sparql.columnar.joins.index_loop")
            rows = pattern.extend(rows, context.graph)
            length = len(rows)
        else:
            batch = join_pattern(context, batch, pattern)
            length = batch.length
        if (
            keys is not None
            and index + 1 < len(patterns)
            and length <= _compiler.PREFIX_MEMO_MAX_ROWS
        ):
            prefix = tuple(keys[: index + 1])
            if rows is not None:
                _store_prefix(memo, prefix, rows, plan)
            else:
                _store_prefix_batch(memo, prefix, batch, plan)
        if length == 0:
            break
    if rows is not None:
        batch = ColumnBatch.from_rows(rows, plan.width)
    return batch


# ---------------------------------------------------------------------------
# The columnar plan
# ---------------------------------------------------------------------------


class ColumnarQuery(CompiledQuery):
    """A compiled id-space plan executed over :class:`ColumnBatch` objects.

    Compilation (slot layout, planned pattern order, expression closures,
    constant resolution, prefix-memo keys) is inherited from
    :class:`~repro.sparql.compiler.CompiledQuery`; this class adds
    execution and result shaping.
    """

    def execute(self, context: ExecContext) -> SelectResult | AskResult:
        self._resolve(context.graph)
        _count(context.stats, "sparql.columnar.executions")
        batch = _run_node(self.root, context, ColumnBatch.seed(self.width), self)
        if self.is_ask:
            return AskResult(batch.length > 0)
        return self._shape_select_batch(batch, context)

    # -- result shaping -------------------------------------------------

    def _shape_select_batch(
        self, batch: ColumnBatch, context: ExecContext
    ) -> SelectResult:
        query = self.query
        assert isinstance(query, SelectQuery)
        decode = self._decode

        if query.is_aggregate:
            return self._aggregate_batch(query, batch)

        if query.select_all:
            seen_slots = {
                slot
                for slot in range(self.width)
                if column_state(batch.columns[slot], batch.length)
                in (BOUND, MIXED)
            }
            variables = tuple(
                sorted(
                    (
                        variable
                        for variable, slot in self.slot_of.items()
                        if slot in seen_slots
                    ),
                    key=lambda v: v.name,
                )
            )
        else:
            variables = tuple(
                p for p in query.projection if isinstance(p, Variable)
            )

        length = batch.length
        projected: list[array] = []
        unbound_column: array | None = None
        for variable in variables:
            slot = self.slot_of.get(variable)
            if slot is None:
                if unbound_column is None:
                    unbound_column = array("q", (UNBOUND,)) * length
                projected.append(unbound_column)
            else:
                projected.append(batch.columns[slot])

        order: Sequence[int] = range(length)
        if query.order_by:
            order = self._order_permutation(batch, context)
        if not query.distinct:
            # Slice the permutation first: only returned rows are built.
            order = _slice(order, query.offset, query.limit)
        id_rows = gather_rows(projected, order)
        if query.distinct:
            id_rows = _slice(
                list(dict.fromkeys(id_rows)), query.offset, query.limit
            )

        # Ids repeat heavily across join results: decode each distinct id
        # once and share the Term object.
        decoded: dict[int, Any] = {UNBOUND: None}
        term_rows = []
        for id_row in id_rows:
            terms = []
            for term_id in id_row:
                term = decoded.get(term_id, _MISSING)
                if term is _MISSING:
                    term = decode(term_id)
                    decoded[term_id] = term
                terms.append(term)
            term_rows.append(tuple(terms))
        return SelectResult(variables=variables, rows=tuple(term_rows))

    def _order_permutation(
        self, batch: ColumnBatch, context: ExecContext
    ) -> Sequence[int]:
        """Row permutation realising ORDER BY.

        Every key becomes an ascending int64 order-rank column, negated
        for DESC; the id tuple over all slots in variable-name order
        breaks ties, as in every engine.  A plain-variable key over a
        dictionary that ships ranks gathers them; any other key is ranked
        locally.  A key that reads no slot is equal on every row and
        drops out.
        """
        shipped = getattr(context.graph.dictionary, "order_ranks", None)
        columns = []
        for closure, descending, slot in self._order_keys:
            if not closure.slots_used:
                continue
            if slot is not None and shipped is not None:
                column = gather_ranks(batch.columns[slot], shipped, batch.length)
                _count(
                    context.stats, "sparql.columnar.order.shipped_rows",
                    batch.length,
                )
            else:
                column = self._local_ranks(closure, batch, context)
            columns.append(negate(column) if descending else column)
        columns.extend(batch.columns[slot] for slot in self.tiebreak_slots)
        return sort_permutation(columns, batch.length)

    def _local_ranks(
        self, closure, batch: ColumnBatch, context: ExecContext
    ) -> Sequence[int]:
        """One key's order ranks, evaluating the key once per distinct
        combination of the slots it reads and dense-ranking the values."""
        slots = sorted(closure.slots_used)
        length = batch.length
        np = _np
        if len(slots) == 1 and np is not None and length >= NUMPY_MIN_ROWS:
            distinct, inverse = np.unique(
                np.frombuffer(batch.columns[slots[0]], dtype=np.int64),
                return_inverse=True,
            )
            combinations = [(value,) for value in distinct.tolist()]
        else:
            memo: dict[tuple[int, ...], int] = {}
            inverse = [
                memo.setdefault(key, len(memo))
                for key in zip(*(batch.columns[slot] for slot in slots))
            ]
            combinations = list(memo)
        template = [UNBOUND] * self.width
        values = []
        for combination in combinations:
            for slot, value in zip(slots, combination):
                template[slot] = value
            try:
                values.append(closure(tuple(template)))
            except SparqlTypeError:
                values.append(None)
        ranks = order_ranks(values)
        _count(
            context.stats,
            "sparql.columnar.order.memo_rows",
            length - len(combinations),
        )
        _count(context.stats, "sparql.columnar.order.evaluated", len(combinations))
        if np is not None and length >= NUMPY_MIN_ROWS:
            return np.asarray(ranks, dtype=np.int64)[inverse]
        return array("q", map(ranks.__getitem__, inverse))

    def _aggregate_batch(
        self, query: SelectQuery, batch: ColumnBatch
    ) -> SelectResult:
        if len(query.projection) != 1:
            raise SparqlError("COUNT cannot be mixed with other projections")
        aggregate = query.projection[0]
        assert isinstance(aggregate, CountAggregate)
        if aggregate.variable is None:
            # Slot-aligned rows: tuple equality is bound-set equality.
            count = (
                len(set(batch.rows())) if aggregate.distinct else batch.length
            )
        else:
            slot = self.slot_of.get(aggregate.variable)
            if slot is None:
                count = 0
            else:
                column = batch.columns[slot]
                if aggregate.distinct:
                    count = len({v for v in column if v != UNBOUND})
                else:
                    count = sum(1 for v in column if v != UNBOUND)
        out_variable = aggregate.alias or Variable("count")
        row = (Literal(str(count), datatype=XSD_INTEGER),)
        return SelectResult(variables=(out_variable,), rows=(row,))


def compile_query(query: SelectQuery | AskQuery, graph: Graph) -> ColumnarQuery:
    """Compile a parsed query into its executable id-space plan."""
    if not isinstance(query, (SelectQuery, AskQuery)):
        raise SparqlError(f"unsupported query type {type(query).__name__}")
    return ColumnarQuery(query, graph)
