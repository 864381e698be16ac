"""Structured explanations: what the pipeline did for one question.

:class:`Explanation` holds stage spans (when tracing was on), the
candidate table with per-candidate ranking scores, and the rejection
reason for every candidate the executor looked at.
:meth:`Explanation.render` (also ``str()``) gives the one-line-per-stage
text.

The dominant error class in the paper's Table 2 — a question mapping to
the wrong property — is exactly what the candidate table makes visible:
each candidate query carries its score, its evidence sources (``pattern`` /
``similarity`` / ``wordnet`` / ``adjective``) and why it lost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.querygen import CandidateQuery
from repro.core.triples import TriplePattern
from repro.core.typecheck import ExpectedType
from repro.obs.trace import Span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.system import Answer

#: Candidate statuses, in the order the executor can assign them.
#: ``not-executed`` marks candidates ranked below the winner (the
#: section-2.3.1 short circuit) or beyond a budget cut.
CANDIDATE_STATUSES = (
    "winner",
    "no-bindings",
    "type-filtered",
    "error",
    "fault-injected",
    "budget-truncated",
    "not-executed",
)


@dataclass(frozen=True)
class CandidateRecord:
    """One candidate query's place in the ranking, with its fate."""

    index: int  #: rank position (0 = best score)
    score: float
    sources: tuple[str, ...]
    sparql: str
    status: str  #: one of :data:`CANDIDATE_STATUSES`
    detail: str = ""  #: e.g. the error text for ``status == "error"``

    def describe(self) -> str:
        """One table row: rank, score, evidence, outcome."""
        sources = "+".join(self.sources) or "-"
        text = (
            f"#{self.index:<3} score={self.score:<12.6g} "
            f"sources={sources:<24} {self.status}"
        )
        return f"{text} ({self.detail})" if self.detail else text


@dataclass
class Explanation:
    """Everything the pipeline can say about how one answer came to be."""

    question: str
    rewritten_question: str | None = None
    degraded: tuple[str, ...] = ()
    truncated: bool = False
    triples: tuple[TriplePattern, ...] = ()
    expected_type: ExpectedType = ExpectedType.ANY
    candidate_queries: tuple[CandidateQuery, ...] = ()
    winning_query: CandidateQuery | None = None
    boolean: bool | None = None
    answers_count: int = 0
    answered: bool = False
    failure: str | None = None
    failure_stage: str | None = None
    #: Per-candidate ranking rationale (always available; statuses beyond
    #: the winner require the executor's outcome records).
    candidates: tuple[CandidateRecord, ...] = ()
    #: The span tree, when the answer was produced under tracing.
    trace: Span | None = field(default=None, repr=False)

    # ------------------------------------------------------------------

    @classmethod
    def from_answer(cls, answer: "Answer") -> "Explanation":
        """Build the structured explanation from a pipeline result."""
        return cls(
            question=answer.question,
            rewritten_question=answer.rewritten_question,
            degraded=tuple(answer.degraded),
            truncated=answer.truncated,
            triples=tuple(answer.triples),
            expected_type=answer.expected_type,
            candidate_queries=tuple(answer.candidate_queries),
            winning_query=answer.query,
            boolean=answer.boolean,
            answers_count=len(answer.answers),
            answered=answer.answered,
            failure=answer.failure,
            failure_stage=answer.failure_stage,
            candidates=_candidate_records(answer),
            trace=answer.trace,
        )

    # ------------------------------------------------------------------

    def render(self) -> str:
        """The plain-text explanation, one line per stage: rewrite,
        extracted patterns, candidate-query count, the winning query, the
        expected-type filter, and the final verdict.
        """
        lines = [f"question: {self.question}"]
        if self.rewritten_question is not None:
            lines.append(f"rewritten (imperative extension): {self.rewritten_question}")
        for fallback in self.degraded:
            lines.append(f"degraded (reliability fallback): {fallback}")
        if self.truncated:
            lines.append("truncated: candidate budget exhausted before completion")
        if self.triples:
            lines.append("triple patterns (section 2.1):")
            for pattern in self.triples:
                lines.append(f"  {pattern}")
        else:
            lines.append("triple patterns (section 2.1): none extracted")
        if self.candidate_queries:
            lines.append(
                f"candidate queries (section 2.3): {len(self.candidate_queries)}"
            )
        if self.expected_type is not ExpectedType.ANY:
            lines.append(f"expected answer type (Table 1): {self.expected_type.value}")
        if self.winning_query is not None:
            lines.append("winning query:")
            for line in self.winning_query.to_sparql().splitlines():
                lines.append(f"  {line}")
        if self.boolean is not None:
            lines.append(f"verdict: {'yes' if self.boolean else 'no'} (ASK extension)")
        elif self.answered:
            lines.append(f"answers: {self.answers_count}")
        else:
            lines.append(f"unanswered: {self.failure}")
        return "\n".join(lines)

    def render_candidates(self) -> str:
        """The candidate table: rank, score, evidence sources, outcome."""
        if not self.candidates:
            return "candidate ranking: none"
        lines = ["candidate ranking (section 2.3.1):"]
        for record in self.candidates:
            lines.append(f"  {record.describe()}")
        return "\n".join(lines)

    def render_tree(self) -> str:
        """The full diagnostic view: plain text + candidate table + spans.

        This is what the redesigned ``repro explain`` command prints.
        """
        parts = [self.render(), "", self.render_candidates()]
        if self.trace is not None:
            parts += ["", "trace:", self.trace.render()]
        return "\n".join(parts)

    def to_dict(self) -> dict:
        """JSON-ready representation (used by trace/metrics export)."""
        return {
            "question": self.question,
            "rewritten_question": self.rewritten_question,
            "degraded": list(self.degraded),
            "truncated": self.truncated,
            "triples": [str(pattern) for pattern in self.triples],
            "expected_type": self.expected_type.value,
            "answered": self.answered,
            "answers_count": self.answers_count,
            "boolean": self.boolean,
            "failure": self.failure,
            "failure_stage": self.failure_stage,
            "winning_query": (
                self.winning_query.to_sparql()
                if self.winning_query is not None else None
            ),
            "candidates": [
                {
                    "index": record.index,
                    "score": record.score,
                    "sources": list(record.sources),
                    "sparql": record.sparql,
                    "status": record.status,
                    "detail": record.detail,
                }
                for record in self.candidates
            ],
            "trace": None if self.trace is None else self.trace.to_dict(),
        }

    def __str__(self) -> str:
        return self.render()


def _candidate_records(answer: "Answer") -> tuple[CandidateRecord, ...]:
    """Merge the ranked candidate list with the executor's outcomes."""
    outcomes = {index: (status, detail)
                for index, status, detail in answer.candidate_outcomes}
    records = []
    for index, candidate in enumerate(answer.candidate_queries):
        status, detail = outcomes.get(index, ("not-executed", ""))
        if status == "not-executed" and answer.query is not None \
                and candidate == answer.query:
            # Winner identified structurally when the executor recorded no
            # outcomes (e.g. an Answer built before execution ran).
            status = "winner"
        records.append(
            CandidateRecord(
                index=index,
                score=candidate.score,
                sources=candidate.sources,
                sparql=candidate.to_sparql(),
                status=status,
                detail=detail,
            )
        )
    return tuple(records)
