"""Candidate query construction (section 2.3).

Builds the Cartesian product of per-slot candidates:

    "By using all possibilities we can build ∏ (cardinality of Ptn) ...
    For example if T has three members each has 2, 5 and 3 possible
    predicates consecutively.  Then there will be 30 possible triple query
    list."

For object-property predicates where one argument is the variable, both
orientations are generated (``?x p E`` and ``E p ?x``): dependency trees do
not reveal which side of the DBpedia property the question element is on,
and the wrong orientation simply returns no bindings.  Data-property
predicates are always oriented entity-subject/literal-object.

Two refinements over the naive product:

* **deduplication** — two predicate candidates can map to the same IRI
  (e.g. a PATTY pattern and a string-similarity hit for ``dbo:author``),
  which used to emit byte-identical queries that were then executed twice.
  Duplicates are collapsed keeping the best-ranked copy.
* **branch-and-bound pruning** (``enable_early_termination``) — only the
  top ``max_queries`` candidates are ever executed, and because every
  weight is positive the score of any completion of a partial combination
  is bounded by (partial product) x (product of per-slot maximum remaining
  weights).  Once ``max_queries`` distinct combinations are collected,
  subtrees whose bound falls strictly below the current k-th best score
  cannot contribute to the output (not even a boundary tie) and are
  skipped.  The enumeration therefore *stops early* instead of
  materialising the full Cartesian product; the surviving set — and the
  final ranking — is provably identical to the exhaustive one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.core.config import PipelineConfig
from repro.core.mapping import CandidateTriple, PredicateCandidate
from repro.kb.ontology import PropertyKind
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.rdf.namespaces import RDF, shrink_iri
from repro.rdf.terms import IRI, Term, Triple, Variable
from repro.sparql.ast import BGP, Group, SelectQuery

#: Relative slack on the branch-and-bound comparison: the bound multiplies
#: the same weights as a real score but in a different association order,
#: so it can differ from an achievable score by a few ulps.  Pruning only
#: when the inflated bound is still below threshold keeps boundary ties
#: exactly reproducible against exhaustive enumeration.
_PRUNE_EPSILON = 1e-9


class _EnumerationBudgetStop(Exception):
    """Internal control flow: the enumeration deadline expired; ``partial``
    carries every combination recorded before the cut."""

    def __init__(self, partial: dict) -> None:
        super().__init__("candidate enumeration budget exhausted")
        self.partial = partial


@dataclass(frozen=True)
class CandidateQuery:
    """One fully instantiated SPARQL candidate with its ranking score."""

    triples: tuple[Triple, ...]
    score: float
    sources: tuple[str, ...]

    def to_ast(self) -> SelectQuery:
        # Memoized: the execute stage submits this AST per candidate, and
        # the engine's plan/result caches key on the AST's structural hash
        # — rebuilding the (immutable) tree each call would re-hash a
        # fresh object every time.  Frozen dataclasses without
        # ``slots=True`` still carry a ``__dict__``, so the cached tree
        # rides on the instance.
        cached = self.__dict__.get("_ast")
        if cached is None:
            cached = SelectQuery(
                projection=(Variable("x"),),
                where=Group((BGP(self.triples),)),
                distinct=True,
            )
            object.__setattr__(self, "_ast", cached)
        return cached

    def to_sparql(self) -> str:
        lines = [f"  {_term(t.subject)} {_term(t.predicate)} {_term(t.object)} ."
                 for t in self.triples]
        body = "\n".join(lines)
        return f"SELECT DISTINCT ?x WHERE {{\n{body}\n}}"


def _term(term: Term) -> str:
    if isinstance(term, Variable):
        return term.n3()
    if isinstance(term, IRI):
        return shrink_iri(term)
    return term.n3()


class QueryGenerator:
    """Expands mapped triples into ranked candidate queries."""

    def __init__(
        self,
        config: PipelineConfig | None = None,
        stats: MetricsRegistry | None = None,
        tracer=None,
    ) -> None:
        self._config = config if config is not None else PipelineConfig()
        self._stats = stats
        self._tracer = tracer if tracer is not None else NULL_TRACER

    def generate(
        self, mapped: list[CandidateTriple], deadline=None
    ) -> list[CandidateQuery]:
        """Distinct candidate queries, best score first, capped at max_queries.

        ``deadline`` (a :class:`repro.reliability.Deadline`, optional) is
        the reliability layer's enumeration budget: when it expires
        mid-enumeration the combinations collected so far are ranked and
        returned — a truncated but well-formed candidate list — and the
        ``querygen.budget_exhausted`` counter records the cut (the caller
        surfaces it via ``Answer.truncated``; never silent).
        """
        if not mapped:
            return []
        per_pattern: list[list[tuple[Triple, float, str]]] = []
        for candidate in mapped:
            choices = list(self._expand(candidate))
            if not choices:
                return []
            per_pattern.append(choices)

        limit = self._config.max_queries
        try:
            if self._config.enable_early_termination:
                best = self._enumerate_pruned(per_pattern, limit, deadline)
            else:
                best = self._enumerate_full(per_pattern, deadline)
        except _EnumerationBudgetStop as stop:
            best = stop.partial
            if self._stats is not None:
                self._stats.inc("querygen.budget_exhausted")
            if self._tracer.active:
                self._tracer.event("enumeration-budget-exhausted")

        # Rank exactly like a stable sort over the full product: score
        # descending, ties broken by product-enumeration order.
        entries = sorted(
            best.items(), key=lambda item: (-item[1][0], item[1][1])
        )
        queries = [
            CandidateQuery(triples, score, sources)
            for triples, (score, __, sources) in entries[:limit]
        ]
        if self._tracer.active:
            self._tracer.annotate(
                axes=len(per_pattern),
                enumerated=len(best),
                kept=len(queries),
                top_score=queries[0].score if queries else 0.0,
            )
        return queries

    # ------------------------------------------------------------------
    # Product enumeration
    # ------------------------------------------------------------------

    def _enumerate_full(
        self, per_pattern: list[list[tuple[Triple, float, str]]], deadline=None
    ) -> dict:
        """Exhaustive Cartesian product with duplicate collapsing.

        Returns ``{triples: (score, order, sources)}`` where ``order`` is
        the combination's index tuple in product-enumeration order.
        """
        best: dict[tuple[Triple, ...], tuple] = {}
        index_ranges = [range(len(choices)) for choices in per_pattern]
        for order in itertools.product(*index_ranges):
            if deadline is not None and deadline.expired():
                raise _EnumerationBudgetStop(best)
            score = 1.0
            triples: list[Triple] = []
            sources: list[str] = []
            for axis, position in enumerate(order):
                triple, weight, source = per_pattern[axis][position]
                score *= weight
                triples.append(triple)
                sources.append(source)
            self._record(best, tuple(triples), score, order, tuple(sources))
        return best

    def _enumerate_pruned(
        self,
        per_pattern: list[list[tuple[Triple, float, str]]],
        limit: int,
        deadline=None,
    ) -> dict:
        """Branch-and-bound enumeration of the product's top ``limit`` set.

        Axes are visited with choices sorted by weight descending, so the
        upper bound of the unvisited remainder of an axis is monotonically
        non-increasing and a single ``break`` abandons it.  The result dict
        is a superset of the exhaustive top-``limit`` entries and contains
        every entry whose score reaches the final k-th best (ties
        included), which makes the subsequent ranking identical to
        :meth:`_enumerate_full`'s.
        """
        axes: list[list[tuple[Triple, float, str, int]]] = []
        for choices in per_pattern:
            indexed = [
                (triple, weight, source, position)
                for position, (triple, weight, source) in enumerate(choices)
            ]
            indexed.sort(key=lambda entry: -entry[1])
            axes.append(indexed)

        # suffix_max[i] = product of the maximum weights of axes i..end.
        suffix_max = [1.0] * (len(axes) + 1)
        for i in range(len(axes) - 1, 0, -1):
            suffix_max[i] = suffix_max[i + 1] * axes[i][0][1]

        best: dict[tuple[Triple, ...], tuple] = {}
        # The k-th best score among collected entries only ever grows, so a
        # cached value stays a valid (conservative) prune threshold until
        # the next insertion.
        threshold: list[float | None] = [None]
        dirty: list[bool] = [True]

        def prune_threshold() -> float | None:
            if dirty[0]:
                if len(best) >= limit:
                    scores = sorted(
                        (entry[0] for entry in best.values()), reverse=True
                    )
                    threshold[0] = scores[limit - 1]
                else:
                    threshold[0] = None
                dirty[0] = False
            return threshold[0]

        def descend(
            axis: int,
            score: float,
            order: tuple[int, ...],
            triples: tuple[Triple, ...],
            sources: tuple[str, ...],
        ) -> None:
            if axis == len(axes):
                if deadline is not None and deadline.expired():
                    raise _EnumerationBudgetStop(best)
                if self._record(best, triples, score, order, sources):
                    dirty[0] = True
                return
            bound_tail = suffix_max[axis + 1]
            for triple, weight, source, position in axes[axis]:
                # Checked inside the per-axis loop too (not only at the
                # leaves): a prune-heavy pass over a huge Cartesian product
                # can spend its whole budget skipping subtrees without ever
                # reaching a leaf, and must still stop on time.
                if deadline is not None and deadline.expired():
                    raise _EnumerationBudgetStop(best)
                cutoff = prune_threshold()
                if cutoff is not None:
                    bound = score * weight * bound_tail
                    if bound * (1.0 + _PRUNE_EPSILON) < cutoff:
                        # Sorted descending: every later choice on this
                        # axis bounds even lower.  The top ranking can no
                        # longer change inside this subtree.
                        if self._stats is not None:
                            self._stats.inc("querygen.subtrees_pruned")
                        break
                descend(
                    axis + 1,
                    score * weight,
                    order + (position,),
                    triples + (triple,),
                    sources + (source,),
                )

        descend(0, 1.0, (), (), ())
        return best

    def _record(
        self,
        best: dict,
        triples: tuple[Triple, ...],
        score: float,
        order: tuple[int, ...],
        sources: tuple[str, ...],
    ) -> bool:
        """Fold one combination into the dedup map.

        Keeps, per distinct triple set, the copy a stable descending sort
        of the full product would have executed first: highest score, then
        earliest product order.  Returns True when the map changed.
        """
        if self._stats is not None:
            self._stats.inc("querygen.combos_enumerated")
        existing = best.get(triples)
        if existing is not None:
            if self._stats is not None:
                self._stats.inc("querygen.duplicates_collapsed")
            if score < existing[0] or (score == existing[0] and order > existing[1]):
                return False
        best[triples] = (score, order, sources)
        return True

    def _expand(self, candidate: CandidateTriple):
        """All (triple, weight, source) instantiations of one pattern."""
        for subject, predicate, obj in itertools.product(
            candidate.subjects, candidate.predicates, candidate.objects
        ):
            yield from self._orient(subject, predicate, obj)

    @staticmethod
    def _orient(subject: Term, predicate: PredicateCandidate, obj: Term):
        weight = predicate.weight
        source = predicate.source
        if predicate.iri == RDF.type:
            yield (Triple(subject, RDF.type, obj), weight, source)
            return
        if predicate.kind is PropertyKind.DATA:
            # Literal-valued: the entity must be the subject.
            if isinstance(subject, Variable) and not isinstance(obj, Variable):
                yield (Triple(obj, predicate.iri, subject), weight, source)
            else:
                yield (Triple(subject, predicate.iri, obj), weight, source)
            return
        # Object property: both orientations are plausible readings.
        yield (Triple(subject, predicate.iri, obj), weight, source)
        if isinstance(subject, Variable) != isinstance(obj, Variable):
            yield (Triple(obj, predicate.iri, subject), weight, source)
