"""Pipeline configuration.

The faithful configuration is the default constructor; the ablation
benchmarks (A1-A4 in DESIGN.md) flip individual components off or swap the
string-similarity metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.reliability.budgets import Deadline
    from repro.reliability.faults import FaultInjector
    from repro.serve.guard import StageGuard


@dataclass(frozen=True)
class PipelineConfig:
    """Feature switches and thresholds for the QA pipeline."""

    #: Use PATTY relational patterns for predicate mapping (section 2.2.3).
    use_patterns: bool = True
    #: Expand object-property candidates with WordNet-similar pairs (2.2.1).
    use_wordnet_pairs: bool = True
    #: Use the WordNet adjective map for data properties (2.2.2).
    use_adjective_map: bool = True
    #: Apply expected-answer-type checking (section 2.3.2 / Table 1).
    use_type_checking: bool = True
    #: String-similarity function name from repro.similarity registry.
    similarity: str = "lcs"
    #: Minimum similarity for a property candidate from string matching.
    similarity_threshold: float = 0.70
    #: Keep at most this many property candidates per predicate slot.
    max_predicate_candidates: int = 5
    #: Discount applied to WordNet-expanded candidates relative to the
    #: candidate they expand (the paper leaves their weight unspecified).
    wordnet_expansion_discount: float = 0.9
    #: Cap on candidate queries executed per question (guards the
    #: Cartesian product of section 2.2).
    max_queries: int = 64

    # -- performance layer (docs/performance.md); none of these change
    # -- answers, only how much work is done to produce them --------------

    #: Memoize string-similarity scores and the mapper's per-word scans
    #: of the property catalogue across questions (section 2.2 recomputes
    #: the same word-property pairs heavily).
    enable_similarity_cache: bool = True
    #: Memoize sentence annotation (tokenise/tag/parse) on question text.
    enable_annotation_cache: bool = True
    #: Prune the candidate Cartesian product with a branch-and-bound upper
    #: bound once the ranked top-``max_queries`` can no longer change, and
    #: stop executing candidates once a productive query can no longer be
    #: displaced (scores are sorted non-increasing).
    enable_early_termination: bool = True

    # -- reliability layer (docs/reliability.md): typed failures, budgets,
    # -- graceful degradation.  Budgets default to "unlimited" and the
    # -- injector to None, so the faithful configuration is unaffected ----

    #: Hard cap on candidate queries *executed* per question (on top of
    #: ``max_queries``, which caps how many are generated).  ``None``
    #: disables the cap.  Never silent: hitting it sets
    #: ``Answer.truncated`` and the ``execute.candidates_truncated``
    #: counter.
    max_candidates: int | None = None
    #: Wall-clock budget in milliseconds shared by one question's
    #: candidate-enumeration and execution stages.  ``None`` disables it.
    #: Hitting the budget stops the stage early (keeping the work already
    #: done), sets ``Answer.truncated`` and bumps the
    #: ``reliability.budget_exhausted`` counter.
    stage_budget_ms: float | None = None
    #: Per-question wall-clock timeout in *seconds* (CLI ``--timeout``).
    #: Semantically the same deadline mechanism as ``stage_budget_ms``
    #: (when both are set the tighter one wins); kept separate so callers
    #: can speak seconds at the request level and milliseconds at the
    #: stage level without unit confusion.
    question_timeout_s: float | None = None
    #: Degrade instead of refusing: when annotation or extraction fails
    #: with an exception, retry with the shallow keyword extractor
    #: (``repro.reliability.fallback``) before giving up.  On the happy
    #: path this never runs, so Table 2 is unaffected.
    enable_fallback_extraction: bool = True
    #: Deterministic fault injection for the reliability test harness
    #: (off — None — in any production configuration).  Excluded from
    #: equality/hash: it is a test controller, not pipeline semantics.
    fault_injector: "FaultInjector | None" = field(
        default=None, compare=False, repr=False
    )
    #: Serving-layer stage guard (per-stage circuit breakers, see
    #: ``repro.serve`` and docs/reliability.md "Serving & overload
    #: behavior").  ``None`` — the default everywhere outside
    #: :class:`repro.serve.ResilientServer` — costs one ``is None`` check
    #: per guarded stage.  Excluded from equality/hash like the injector:
    #: it shapes *when* work runs, never what answers are.
    stage_guard: "StageGuard | None" = field(
        default=None, compare=False, repr=False
    )

    # -- observability layer (docs/observability.md): span tracing is an
    # -- opt-in; the default NULL tracer keeps the hot path unchanged -----

    #: Build a span tree per (sampled) question, attached to
    #: ``Answer.trace``: one span per pipeline stage, candidate/cache
    #: events, and per-candidate mapping rationale.  Off by default —
    #: the no-op tracer's overhead is pinned <2% by the tier-1 guard.
    enable_tracing: bool = False
    #: Trace every n-th question (deterministic, by call count).  1 traces
    #: everything; larger values are the low-overhead production mode.
    trace_sample_every: int = 1

    # -- storage layer (docs/architecture.md "Storage backends &
    # -- sharding"): which KBBackend the CLI builds the KB over.  Never
    # -- changes answers — only where the triples live ---------------------

    #: KB storage backend: ``"memory"`` (single-heap dict indexes, the
    #: default) or ``"segments"`` (mmap-loaded on-disk shards, requires
    #: ``kb_segments_path``).
    kb_backend: str = "memory"
    #: Segment directory for ``kb_backend="segments"`` (written by
    #: ``repro kb build-segments``).
    kb_segments_path: str | None = None

    # -- future-work extensions (paper section 6), all off by default so
    # -- the faithful configuration reproduces Table 2 unchanged ----------

    #: Generate ASK queries for boolean questions ("Is Berlin the capital
    #: of Germany?") instead of failing on them.
    enable_boolean_questions: bool = False
    #: Mine relational patterns for *data* properties too (the research
    #: gap of section 5), so "When was X born?" can map to dbo:birthDate.
    enable_data_property_patterns: bool = False
    #: Normalise imperative list requests ("Give me all ...") into the
    #: wh-question grammar the extractor covers.
    enable_imperatives: bool = False

    def with_extensions(self) -> "PipelineConfig":
        """All section-6 future-work extensions switched on."""
        return self._replace(
            enable_boolean_questions=True,
            enable_data_property_patterns=True,
            enable_imperatives=True,
        )

    def without_patterns(self) -> "PipelineConfig":
        return self._replace(use_patterns=False)

    def without_wordnet(self) -> "PipelineConfig":
        return self._replace(use_wordnet_pairs=False, use_adjective_map=False)

    def without_type_checking(self) -> "PipelineConfig":
        return self._replace(use_type_checking=False)

    def with_similarity(self, name: str) -> "PipelineConfig":
        return self._replace(similarity=name)

    def with_budgets(
        self,
        max_candidates: int | None = None,
        stage_budget_ms: float | None = None,
    ) -> "PipelineConfig":
        """Opt into the reliability budgets (see docs/reliability.md)."""
        return self._replace(
            max_candidates=max_candidates, stage_budget_ms=stage_budget_ms
        )

    def with_fault_injector(self, injector: "FaultInjector") -> "PipelineConfig":
        """Attach a fault injector (test harness only)."""
        return self._replace(fault_injector=injector)

    def with_stage_guard(self, guard: "StageGuard") -> "PipelineConfig":
        """Attach a serving-layer stage guard (per-stage circuit breakers)."""
        return self._replace(stage_guard=guard)

    def new_deadline(self) -> "Deadline":
        """A fresh per-question :class:`repro.reliability.Deadline` from
        the configured budgets — the tighter of ``question_timeout_s``
        and ``stage_budget_ms``, unlimited when neither is set."""
        from repro.reliability.budgets import Deadline

        candidates = [
            seconds
            for seconds in (
                self.question_timeout_s,
                None if self.stage_budget_ms is None else self.stage_budget_ms / 1000.0,
            )
            if seconds is not None
        ]
        return Deadline(min(candidates) if candidates else None)

    def with_tracing(self, sample_every: int = 1) -> "PipelineConfig":
        """Opt into span tracing (see docs/observability.md)."""
        return self._replace(enable_tracing=True, trace_sample_every=sample_every)

    def updated(self, **changes) -> "PipelineConfig":
        """A copy with individual fields replaced.

        The public single-field update API: the CLI's declarative
        flag→field table applies each present flag through this, so two
        flags never clobber each other the way the all-at-once
        ``with_budgets`` signature could.
        """
        return self._replace(**changes)

    def without_perf_caches(self) -> "PipelineConfig":
        """The seed's cold path: no memoization, no product pruning.

        The oracle configuration of the perf layer's behaviour-neutrality
        tests (``tests/perf/test_batch.py``, ``tests/core/
        test_querygen_dedup.py``), together with disabling the engine's
        query cache.
        """
        return self._replace(
            enable_similarity_cache=False,
            enable_annotation_cache=False,
            enable_early_termination=False,
        )

    def _replace(self, **changes) -> "PipelineConfig":
        from dataclasses import replace

        return replace(self, **changes)
