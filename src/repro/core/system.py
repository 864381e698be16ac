"""The question-answering system facade (the paper's whole pipeline).

``answer()`` runs: annotate -> extract triple patterns (2.1) -> map slots
(2.2) -> generate candidate queries (2.3) -> execute against the KB ->
filter by expected answer type (2.3.2) -> return the answers of the
best-scoring productive query (2.3.1).

``answer_many()`` answers a batch in order on the caller's thread, one
question at a time; ``docs/performance.md`` covers the cache layers that
make repeated runs cheap and the thread-safety contract that lets the
serving layer's workers share one system.  Every stage records wall time
and counters into :attr:`QuestionAnsweringSystem.stats`.

**Reliability contract** (``docs/reliability.md``): ``answer()`` never
raises.  Every stage boundary converts failures into a typed
:class:`repro.reliability.StageError` recorded on :attr:`Answer.failure`
(and :attr:`Answer.failure_stage`); annotation/extraction exceptions fall
back to the shallow keyword extractor before giving up; a candidate query
that errors or exceeds the stage budget is skipped and ranking continues
over the survivors.  Budgets (``PipelineConfig.max_candidates`` /
``stage_budget_ms``) are never silent: hitting one sets
:attr:`Answer.truncated` and a counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.config import PipelineConfig
from repro.core.explain import Explanation
from repro.core.extraction import TripleExtractor
from repro.core.mapping import CandidateTriple, MappingFailure, TripleMapper
from repro.core.querygen import CandidateQuery, QueryGenerator
from repro.core.triples import TriplePattern
from repro.core.typecheck import ExpectedType, answer_matches_type, expected_answer_type
from repro.kb.builder import KnowledgeBase
from repro.kb.segment import PATTERNS_RESOURCE
from repro.nlp.dependencies import DependencyGraph
from repro.nlp.pipeline import Pipeline, Sentence
from repro.patty.export import pattern_store_from_state
from repro.patty.store import PatternStore, build_pattern_store
from repro.reliability.budgets import Deadline
from repro.reliability.errors import (
    AnnotationError,
    ExecutionError,
    ExtractionError,
    InternalError,
    MappingError,
    QueryGenerationError,
    StageError,
    TypeCheckError,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Span, Tracer
from repro.rdf.terms import Term, Variable
from repro.wordnet.adjectives import AdjectivePropertyMap, build_adjective_map
from repro.wordnet.database import build_wordnet
from repro.wordnet.pairs import SimilarPropertyIndex, build_similar_property_pairs


@dataclass
class Answer:
    """Everything the pipeline produced for one question."""

    question: str
    answers: list[Term] = field(default_factory=list)
    query: CandidateQuery | None = None
    expected_type: ExpectedType = ExpectedType.ANY
    triples: list[TriplePattern] = field(default_factory=list)
    candidate_queries: list[CandidateQuery] = field(default_factory=list)
    failure: str | None = None
    #: Yes/no verdict, only set by the boolean-questions extension.
    boolean: bool | None = None
    #: Imperative rewrite applied before answering, when the extension ran.
    rewritten_question: str | None = None
    #: Pipeline stage the failure is attributed to (a
    #: :class:`repro.reliability.Stage` value, or "internal" for the
    #: never-raise last resort), when :attr:`failure` came from a typed
    #: :class:`repro.reliability.StageError`.
    failure_stage: str | None = None
    #: Fallbacks applied while answering, in order (e.g.
    #: "annotate:shallow-annotation", "extract:keyword-patterns").  A
    #: non-empty list means the answer was produced in degraded mode.
    degraded: list[str] = field(default_factory=list)
    #: True when a budget (candidate cap or stage wall-clock budget) cut
    #: work short — the explicit "truncated" marker; never silent.
    truncated: bool = False
    #: Executor outcome per candidate-query rank: ``(index, status,
    #: detail)`` tuples with statuses from
    #: :data:`repro.core.explain.CANDIDATE_STATUSES`.  Feeds the
    #: :class:`Explanation` candidate table; candidates without a record
    #: were never executed (short-circuited).
    candidate_outcomes: list[tuple[int, str, str]] = field(
        default_factory=list, repr=False
    )
    #: The root span of this question's trace, when the system was
    #: configured with ``enable_tracing`` and the question was sampled.
    trace: Span | None = field(default=None, repr=False)

    @property
    def answered(self) -> bool:
        return bool(self.answers) or self.boolean is not None

    @property
    def top(self) -> Term | None:
        """The single top-ranked answer (what the paper reports to users)."""
        return self.answers[0] if self.answers else None

    def explanation(self) -> Explanation:
        """Structured account of what the pipeline did for this question:
        stage spans (under tracing), the ranked candidate table with
        per-candidate scores and evidence sources, and rejection reasons.

        ``str(answer.explanation())`` is the one-line-per-stage text;
        ``explanation().render_tree()`` adds the candidate table and the
        span tree (what ``python -m repro explain`` prints).
        """
        return Explanation.from_answer(self)


class QuestionAnsweringSystem:
    """End-to-end natural-language question answering over the KB."""

    def __init__(
        self,
        kb: KnowledgeBase,
        pattern_store: PatternStore,
        similar_pairs: SimilarPropertyIndex,
        adjective_map: AdjectivePropertyMap,
        config: PipelineConfig | None = None,
        data_pattern_store: PatternStore | None = None,
    ) -> None:
        self._kb = kb
        self._config = config if config is not None else PipelineConfig()
        #: Stage timers, pipeline counters and the ``trace.*`` aggregates
        #: of every sampled question.
        self._stats = MetricsRegistry()
        self._tracer = (
            Tracer(sample_every=self._config.trace_sample_every)
            if self._config.enable_tracing else NULL_TRACER
        )
        if self._tracer.enabled:
            # The engine keeps a *list* of installed tracers (it is shared
            # by every system over this KB); events land on whichever one
            # has a trace open on the current thread.
            kb.engine.add_tracer(self._tracer)
        self._pipeline = Pipeline(
            kb.surface_index,
            cache_size=1024 if self._config.enable_annotation_cache else 0,
        )
        self._extractor = TripleExtractor()
        self._mapper = TripleMapper(
            kb, pattern_store, similar_pairs, adjective_map, self._config,
            data_pattern_store=data_pattern_store,
            stats=self._stats,
            tracer=self._tracer,
        )
        self._generator = QueryGenerator(
            self._config, stats=self._stats, tracer=self._tracer
        )
        # Imported lazily: repro.reliability.fallback itself imports
        # repro.core.triples, so a module-level import would cycle when
        # repro.reliability is imported before repro.core.
        from repro.reliability.fallback import KeywordPatternExtractor

        self._fallback_extractor = KeywordPatternExtractor()
        self._boolean_handler = None
        if self._config.enable_boolean_questions:
            from repro.extensions.booleans import BooleanQuestionHandler

            self._boolean_handler = BooleanQuestionHandler(self._mapper)

    @classmethod
    def over(
        cls, kb: KnowledgeBase, config: PipelineConfig | None = None
    ) -> "QuestionAnsweringSystem":
        """Build the system with all resources mined/derived from the KB:
        the PATTY pattern store, WordNet property pairs and adjective map
        (plus the data-property pattern store when that extension is on).

        When the KB's indexes were loaded from its backend's shipped
        resources (:attr:`KnowledgeBase.shipped_index`), the pattern store
        is loaded from the same shipped set instead of mined; it equals a
        freshly mined one pattern for pattern."""
        config = config if config is not None else PipelineConfig()
        wordnet = build_wordnet()
        data_pattern_store = None
        if config.enable_data_property_patterns:
            from repro.extensions.datapatterns import build_data_pattern_store

            data_pattern_store = build_data_pattern_store(kb)
        pattern_store = None
        if kb.shipped_index:
            pattern_store = kb.backend.shipped_resource(
                PATTERNS_RESOURCE, pattern_store_from_state
            )
        if pattern_store is None:
            pattern_store = build_pattern_store(kb)
        return cls(
            kb,
            pattern_store=pattern_store,
            similar_pairs=build_similar_property_pairs(kb.ontology, wordnet),
            adjective_map=build_adjective_map(kb.ontology, wordnet),
            config=config,
            data_pattern_store=data_pattern_store,
        )

    @classmethod
    def from_backend(
        cls,
        backend,
        config: PipelineConfig | None = None,
        ontology=None,
    ) -> "QuestionAnsweringSystem":
        """Build the system over a storage backend
        (:class:`repro.kb.KBBackend`) instead of a pre-built KB.

        Wraps the backend in a :class:`~repro.kb.builder.KnowledgeBase`
        via :meth:`KnowledgeBase.from_backend` (loading the derived lookup
        indexes the backend ships, or rebuilding them from the stored
        triples) and then gets the pattern resources exactly as
        :meth:`over` does.  ``ontology`` defaults to the DBpedia-shaped
        schema every stored KB in this repo uses.
        """
        from repro.kb.schema import build_dbpedia_ontology

        if ontology is None:
            ontology = build_dbpedia_ontology()
        kb = KnowledgeBase.from_backend(ontology, backend)
        return cls.over(kb, config)

    # ------------------------------------------------------------------

    def answer(self, question: str, deadline: Deadline | None = None) -> Answer:
        """Answer one natural-language question.

        Never raises: any failure inside a stage is converted at the stage
        boundary into a typed diagnostic on :attr:`Answer.failure` (see the
        module docstring for the full reliability contract).

        ``deadline`` — an explicit per-request
        :class:`repro.reliability.Deadline` (the serving layer propagates
        each request's admission deadline here) — overrides the
        config-derived budget (``stage_budget_ms`` / ``question_timeout_s``)
        for this question only.

        Under ``PipelineConfig.enable_tracing`` the (sampled) question is
        answered inside a span tree — one child span per stage, with
        candidate/cache events — attached to :attr:`Answer.trace` and
        folded into the ``trace.*`` histograms of :meth:`metrics`.
        """
        root = self._tracer.begin_trace("answer", question=question)
        try:
            result = self._answer_guarded(
                question, traced=root is not None, deadline=deadline
            )
        except Exception as error:  # last resort: the contract is absolute
            self._stats.inc("reliability.unexpected_errors")
            typed = InternalError.from_exception(error)
            result = Answer(
                question=question,
                failure=typed.describe(),
                failure_stage=typed.stage_value,
            )
        if root is not None:
            self._finish_trace(root, result)
        return result

    def _finish_trace(self, root: Span, result: Answer) -> None:
        """Stamp reliability events + outcome attributes, close, attach."""
        for fallback in result.degraded:
            root.add_event("degraded", fallback=fallback)
        if result.truncated:
            root.add_event("truncated")
        if result.failure is not None:
            root.add_event(
                "failure",
                stage=result.failure_stage or "",
                error=result.failure,
            )
        root.attributes.update(
            answered=result.answered,
            answers=len(result.answers),
            truncated=result.truncated,
            degraded=len(result.degraded),
        )
        self._tracer.end_trace(root)
        result.trace = root
        self._stats.absorb_span(root)

    def _answer_guarded(
        self,
        question: str,
        traced: bool = False,
        deadline: Deadline | None = None,
    ) -> Answer:
        # Stage spans use the explicit open/close twin of Tracer.span()
        # behind `traced` guards: an untraced question pays one boolean
        # check per stage, nothing else (the <2% overhead contract of
        # docs/observability.md).  The stage methods never raise (that is
        # the reliability contract), so open/close pairs cannot leak; the
        # last-resort handler's end_trace would close them even if one did.
        tracer = self._tracer
        text = question
        rewritten: str | None = None
        if self._config.enable_imperatives:
            from repro.extensions.imperatives import normalize_imperative

            try:
                rewritten = normalize_imperative(question)
            except Exception:
                self._stats.inc("reliability.failures.imperative_rewrite")
                rewritten = None
            if rewritten is not None:
                text = rewritten

        faults = self._config.fault_injector
        if deadline is None:
            deadline = self._config.new_deadline()
        result = Answer(question=question, rewritten_question=rewritten)

        # -- annotate --------------------------------------------------
        span = tracer.open_span("annotate") if traced else None
        sentence = self._annotate_stage(text, result, faults)
        if span is not None:
            span.attributes.update(
                ok=sentence is not None,
                tokens=0 if sentence is None else len(sentence.tokens),
            )
            tracer.close_span(span)
        if sentence is None:
            return result
        shallow = sentence.graph.template == "shallow-fallback"

        try:
            result.expected_type = expected_answer_type(sentence)
        except Exception:
            self._stats.inc("reliability.failures.expected_type")

        if (
            self._boolean_handler is not None
            and not shallow
            and self._try_boolean(sentence, result)
        ):
            return result

        # -- extract ---------------------------------------------------
        span = tracer.open_span("extract") if traced else None
        extracted = self._extract_stage(text, sentence, result, faults, shallow)
        if span is not None:
            span.attributes.update(ok=extracted, patterns=len(result.triples))
            tracer.close_span(span)
        if not extracted:
            return result

        # -- map -------------------------------------------------------
        span = tracer.open_span("map") if traced else None
        caches_before = self._mapper.cache_snapshot() if span is not None else None
        mapped = self._map_stage(text, sentence, result, faults)
        if span is not None:
            span.attributes.update(
                ok=mapped is not None,
                mapped_patterns=0 if mapped is None else len(mapped),
                predicate_candidates=0 if mapped is None else sum(
                    len(candidate.predicates) for candidate in mapped
                ),
            )
            self._attach_cache_deltas(span, caches_before)
            tracer.close_span(span)
        if mapped is None:
            return result

        # -- generate --------------------------------------------------
        span = tracer.open_span("generate") if traced else None
        generated = self._generate_stage(text, mapped, result, faults, deadline)
        if span is not None:
            span.attributes.update(
                ok=generated, candidates=len(result.candidate_queries)
            )
            tracer.close_span(span)
        if not generated:
            return result

        # -- execute ---------------------------------------------------
        span = tracer.open_span("execute") if traced else None
        guard = self._config.stage_guard
        guarded = False
        rejection: StageError | None = None
        if guard is not None:
            try:
                guard.enter("execute")
                guarded = True
            except StageError as error:
                # Breaker open: candidates are never run; the request
                # fails fast with the typed rejection.
                rejection = error
                self._trace_stage_failure(error)
                result.failure = error.describe()
                result.failure_stage = error.stage_value
        if rejection is None:
            with self._stats.timer("execute"):
                execute_error = self._execute(
                    result, deadline=deadline, faults=faults, text=text
                )
            if guarded:
                guard.exit("execute", failed=execute_error is not None)
        if span is not None:
            span.attributes.update(
                productive=result.query is not None,
                answers=len(result.answers),
            )
            tracer.close_span(span)
        if deadline.tripped:
            result.truncated = True
            self._stats.inc("reliability.budget_exhausted")
        if not result.answered and result.failure is None:
            if result.truncated:
                result.failure = (
                    "candidate budget exhausted before a productive query"
                )
            else:
                result.failure = (
                    "no candidate query produced type-conforming answers"
                )
        return result

    # -- stage boundaries (each converts failures to typed diagnostics) --

    def _annotate_stage(self, text, result, faults) -> Sentence | None:
        """Full annotation, degrading to shallow annotation on failure.

        The serving layer's stage guard (when installed) gates entry: an
        open annotate breaker raises its typed rejection here, which lands
        on the same fallback ladder as a real annotation failure — i.e. a
        failing annotate stage degrades to shallow annotation while its
        breaker gives the full annotator room to recover.
        """
        error: StageError | None = None
        guard = self._config.stage_guard
        guarded = False
        sentence: Sentence | None = None
        try:
            if guard is not None:
                guard.enter("annotate")
                guarded = True
            if faults is not None and faults.check("annotate", text):
                # Injected empty result: an empty sentence, which the
                # extractor treats as the paper's "cannot process" case.
                sentence = Sentence(
                    text=text, tokens=[], graph=DependencyGraph([], root=None)
                )
            else:
                with self._stats.timer("annotate"):
                    sentence = self._pipeline.annotate(text)
        except StageError as stage_error:
            error = stage_error
        except Exception as unexpected:
            error = AnnotationError(f"{type(unexpected).__name__}: {unexpected}")
        if guarded:
            guard.exit("annotate", failed=error is not None)
        if error is None:
            return sentence

        self._stats.inc("reliability.failures.annotate")
        self._trace_stage_failure(error)
        result.failure = error.describe()
        result.failure_stage = error.stage_value
        if not self._config.enable_fallback_extraction:
            return None
        try:
            sentence = self._pipeline.annotate_shallow(text)
        except Exception:
            self._stats.inc("reliability.fallbacks.shallow_annotate_failed")
            return None
        result.degraded.append("annotate:shallow-annotation")
        self._stats.inc("reliability.fallbacks.shallow_annotate")
        return sentence

    def _try_boolean(self, sentence: Sentence, result: Answer) -> bool:
        """Guarded boolean-extension path; falls through on any failure."""
        try:
            if not self._boolean_handler.is_boolean_question(sentence):
                return False
            return self._answer_boolean(sentence, result)
        except Exception:
            self._stats.inc("reliability.failures.boolean_extension")
            result.boolean = None
            return False

    def _extract_stage(self, text, sentence, result, faults, shallow) -> bool:
        """Triple extraction with the keyword-pattern fallback ladder.

        Returns True when ``result.triples`` is usable.  The fallback runs
        only for *exceptional* failures (extractor raised, or annotation
        already degraded to a parse-less sentence) — an ordinary empty
        bucket stays the paper's "cannot process" refusal.
        """
        error: StageError | None = None
        try:
            if faults is not None and faults.check("extract", text):
                result.triples = []
            else:
                with self._stats.timer("extract"):
                    result.triples = self._extractor.extract(sentence)
        except StageError as stage_error:
            error = stage_error
        except Exception as unexpected:
            error = ExtractionError(f"{type(unexpected).__name__}: {unexpected}")

        if error is not None:
            self._stats.inc("reliability.failures.extract")
            self._trace_stage_failure(error)
            result.failure = error.describe()
            result.failure_stage = error.stage_value
            result.triples = []

        if result.triples:
            return True

        if self._config.enable_fallback_extraction and (error is not None or shallow):
            try:
                patterns = self._fallback_extractor.extract(sentence)
            except Exception:
                patterns = []
            if patterns:
                result.triples = patterns
                result.degraded.append("extract:keyword-patterns")
                self._stats.inc("reliability.fallbacks.keyword_extraction")
                result.failure = None
                result.failure_stage = None
                return True

        if result.failure is None:
            result.failure = "no triple patterns extracted (section 2.1 coverage)"
        return False

    def _map_stage(self, text, sentence, result, faults) -> list[CandidateTriple] | None:
        guard = self._config.stage_guard
        guarded = False
        try:
            if guard is not None:
                guard.enter("map")
                guarded = True
            if faults is not None and faults.check("map", text):
                mapped: list[CandidateTriple] = []
            else:
                with self._stats.timer("map"):
                    mapped = self._mapper.map(sentence, result.triples)
            if guarded:
                guard.exit("map", failed=False)
            return mapped
        except MappingFailure as failure:
            # The paper's expected refusal (Table 2 "cannot process"), not
            # a reliability fault: keep its established diagnostic (and do
            # not count it against the breaker — refusing is healthy).
            if guarded:
                guard.exit("map", failed=False)
            result.failure = f"mapping failed: {failure}"
            result.failure_stage = "map"
            return None
        except StageError as error:
            if guarded:
                guard.exit("map", failed=True)
            self._stats.inc("reliability.failures.map")
            self._trace_stage_failure(error)
            result.failure = error.describe()
            result.failure_stage = error.stage_value
            return None
        except Exception as unexpected:
            if guarded:
                guard.exit("map", failed=True)
            self._stats.inc("reliability.failures.map")
            error = MappingError(f"{type(unexpected).__name__}: {unexpected}")
            self._trace_stage_failure(error)
            result.failure = error.describe()
            result.failure_stage = error.stage_value
            return None

    def _generate_stage(self, text, mapped, result, faults, deadline) -> bool:
        try:
            if faults is not None and faults.check("generate", text):
                result.candidate_queries = []
            else:
                with self._stats.timer("generate"):
                    result.candidate_queries = self._generator.generate(
                        mapped, deadline=deadline
                    )
        except StageError as error:
            self._stats.inc("reliability.failures.generate")
            self._trace_stage_failure(error)
            result.failure = error.describe()
            result.failure_stage = error.stage_value
            return False
        except Exception as unexpected:
            self._stats.inc("reliability.failures.generate")
            error = QueryGenerationError(
                f"{type(unexpected).__name__}: {unexpected}"
            )
            self._trace_stage_failure(error)
            result.failure = error.describe()
            result.failure_stage = error.stage_value
            return False
        if not result.candidate_queries:
            result.failure = "no candidate queries generated"
            return False
        return True

    def _trace_stage_failure(self, error: StageError) -> None:
        """Stamp a taxonomy-typed failure event on the open stage span."""
        if self._tracer.active:
            name, attributes = error.trace_event()
            self._tracer.event(name, **attributes)

    def _attach_cache_deltas(self, span: Span, before: dict | None) -> None:
        """Instant sub-spans with per-stage cache hit/miss deltas.

        The mapping stage's caches (similarity memo, property-scan memo)
        are shared across questions and threads; the deltas are exact for
        a sequentially traced question and best-effort approximations
        while other questions run on the serving layer's workers.
        """
        if before is None:
            return
        after = self._mapper.cache_snapshot()
        for name, counters in after.items():
            baseline = before.get(name, {})
            span.child(
                f"cache.{name}",
                hits=counters.get("hits", 0) - baseline.get("hits", 0),
                misses=counters.get("misses", 0) - baseline.get("misses", 0),
            )

    def answer_many(self, questions: Sequence[str] | Iterable[str]) -> list[Answer]:
        """Answer a batch of questions in input order.

        Each answer is exactly what :meth:`answer` gives for its question.
        One poisoned question never kills the batch: an exception that
        escapes :meth:`answer` becomes a typed ``internal`` failure for
        that question alone (counted under ``batch.failures``).
        """
        questions = list(questions)
        if questions:
            self._stats.inc("batch.questions", len(questions))
        return [self._answer_isolated(question) for question in questions]

    def _answer_isolated(self, question: str) -> Answer:
        try:
            return self.answer(question)
        except Exception as error:
            self._stats.inc("batch.failures")
            typed = InternalError.from_exception(error)
            return Answer(
                question=question,
                failure=typed.describe(),
                failure_stage=typed.stage_value,
            )

    # ------------------------------------------------------------------

    def _answer_boolean(self, sentence: Sentence, result: Answer) -> bool:
        """Extension path: try to settle a yes/no question via ASK.

        Returns True when a verdict was reached; False falls through to the
        ordinary pipeline (which will fail the question, preserving the
        faithful behaviour for unmappable predicates like "alive").
        """
        assert self._boolean_handler is not None
        bucket = self._boolean_handler.extract(sentence)
        if not bucket:
            return False
        result.triples = bucket
        candidates = self._boolean_handler.candidates(sentence, bucket)
        if not candidates:
            return False
        # Verdict comes from the best-ranked predicate only (both of its
        # orientations): checking lower-ranked predicates too would let
        # "Was X born in Y?" answer yes because X *died* in Y.
        best_predicate = candidates[0].triples[0].predicate
        result.boolean = any(
            self._kb.engine.query(candidate.to_ast()).value
            for candidate in candidates
            if candidate.triples[0].predicate == best_predicate
        )
        return True

    def _execute(
        self,
        result: Answer,
        deadline: Deadline | None = None,
        faults=None,
        text: str = "",
    ) -> StageError | None:
        """Run candidates best-first; keep the first productive one.
        Returns the first typed candidate error (``None`` on a clean run)
        so the serving layer's execute breaker can count backend failures.

        Early termination (section 2.3.1): candidate scores are sorted
        non-increasing, so the moment a candidate yields type-conforming
        answers no later candidate can displace it — the loop stops without
        touching the rest of the (already capped) list.

        Reliability: a candidate that raises (or draws an injected fault)
        is *skipped* — ranking continues over the survivors — and the first
        typed error is kept for the diagnostic if nothing answers.  The
        ``max_candidates`` cap and the wall-clock deadline both cut the
        loop short with an explicit truncation marker, never silently.
        """
        check_types = self._config.use_type_checking
        tracer = self._tracer
        outcomes = result.candidate_outcomes
        candidates = result.candidate_queries
        cap = self._config.max_candidates
        if cap is not None and len(candidates) > cap:
            self._stats.inc(
                "execute.candidates_truncated", len(candidates) - cap
            )
            result.truncated = True
            for index in range(cap, len(candidates)):
                outcomes.append((index, "budget-truncated", "max_candidates cap"))
            candidates = candidates[:cap]

        first_error: StageError | None = None
        executed = 0
        for index, candidate in enumerate(candidates):
            if deadline is not None and deadline.expired():
                self._stats.inc("execute.budget_exhausted")
                for remaining in range(index, len(candidates)):
                    outcomes.append(
                        (remaining, "budget-truncated", "stage budget expired")
                    )
                break
            executed += 1
            try:
                if faults is not None and faults.check("execute", text):
                    outcomes.append((index, "fault-injected", ""))
                    continue  # injected empty result set
                select = self._kb.engine.query(candidate.to_ast())
            except StageError as error:
                first_error = first_error or error
                self._stats.inc("execute.candidates_failed")
                outcomes.append((index, "error", error.describe()))
                continue
            except Exception as unexpected:
                first_error = first_error or ExecutionError(
                    f"{type(unexpected).__name__}: {unexpected}"
                )
                self._stats.inc("execute.candidates_failed")
                outcomes.append(
                    (index, "error", f"{type(unexpected).__name__}: {unexpected}")
                )
                continue
            answers = [term for term in select.column(Variable("x")) if term is not None]
            raw_count = len(answers)
            if check_types and answers:
                tspan = (
                    tracer.open_span(
                        "typecheck", candidate=index, raw_answers=raw_count
                    )
                    if tracer.active else None
                )
                try:
                    if faults is not None and faults.check("typecheck", text):
                        answers = []
                    else:
                        answers = [
                            term for term in answers
                            if answer_matches_type(
                                self._kb, term, result.expected_type
                            )
                        ]
                    if tspan is not None:
                        tspan.attributes["kept"] = len(answers)
                except StageError as error:
                    first_error = first_error or error
                    self._stats.inc("execute.candidates_failed")
                    outcomes.append((index, "error", error.describe()))
                    continue
                except Exception as unexpected:
                    first_error = first_error or TypeCheckError(
                        f"{type(unexpected).__name__}: {unexpected}"
                    )
                    self._stats.inc("execute.candidates_failed")
                    outcomes.append(
                        (index, "error", f"{type(unexpected).__name__}: {unexpected}")
                    )
                    continue
                finally:
                    if tspan is not None:
                        tracer.close_span(tspan)
            if answers:
                # A canonical order: rows come in scan order, which differs
                # between backends; the paper ranks candidate queries, not
                # one query's answers.
                result.answers = sorted(answers, key=lambda term: term.n3())
                result.query = candidate
                outcomes.append((index, "winner", ""))
                if tracer.active:
                    tracer.event(
                        "candidate",
                        index=index,
                        score=candidate.score,
                        outcome="winner",
                        answers=len(answers),
                    )
                self._stats.inc("execute.candidates_run", executed)
                self._stats.inc(
                    "execute.candidates_short_circuited",
                    len(candidates) - executed,
                )
                return first_error
            status = "type-filtered" if raw_count and not answers else "no-bindings"
            outcomes.append((index, status, ""))
            if tracer.active:
                tracer.event(
                    "candidate", index=index, score=candidate.score, outcome=status
                )
        self._stats.inc("execute.candidates_run", executed)
        if first_error is not None and result.failure is None:
            result.failure = first_error.describe()
            result.failure_stage = first_error.stage_value
        return first_error

    # -- serving-layer integration (repro.serve) -----------------------

    def install_stage_guard(self, guard) -> None:
        """Install a serving-layer stage guard (per-stage circuit breakers).

        The guard's ``enter(stage)`` / ``exit(stage, failed)`` hooks wrap
        the annotate/map/execute stage boundaries (see
        :class:`repro.serve.guard.StageGuard`).  Pass ``None`` to remove.
        """
        self._config = self._config.with_stage_guard(guard)

    def export_warm_state(self) -> dict:
        """Picklable warm caches for :mod:`repro.serve.snapshot`.

        Bundles the SPARQL engine's result-cache entries with the
        mapper's similarity memo.
        """
        return {
            "engine": self._kb.engine.export_warm_state(),
            "mapper": self._mapper.export_warm_memos(),
        }

    def restore_warm_state(self, state: dict) -> dict[str, int]:
        """Load :meth:`export_warm_state` output; returns restore counts.

        Raises ``ValueError`` when the engine state belongs to a different
        graph generation (the snapshot layer converts that into a typed
        :class:`repro.serve.SnapshotError`).
        """
        counts = self._kb.engine.import_warm_state(state["engine"])
        counts["mapper_memos"] = self._mapper.import_warm_memos(
            state.get("mapper", {})
        )
        return counts

    @property
    def kb(self) -> KnowledgeBase:
        return self._kb

    @property
    def config(self) -> PipelineConfig:
        return self._config

    @property
    def stats(self) -> MetricsRegistry:
        """This system's own metrics: stage timers, pipeline counters and
        trace aggregates (:meth:`metrics` adds the engine's and the
        storage backend's)."""
        return self._stats

    @property
    def tracer(self) -> "Tracer | object":
        """This system's tracer (:data:`NULL_TRACER` unless tracing is on)."""
        return self._tracer

    def metrics(self) -> dict:
        """The unified ``repro.metrics/v1`` document for this system.

        Merges (see ``docs/observability.md``): the pipeline stage timers
        (as ``stage.<name>.seconds`` histograms), every pipeline counter —
        including the whole ``reliability.*`` family — the SPARQL engine's
        counters and cache gauges, and the ``trace.*`` aggregates of every
        traced question.
        """
        registry = MetricsRegistry()
        registry.merge(self._stats)
        registry.merge(self._kb.engine.stats)
        registry.absorb_cache_stats(self._kb.engine.cache_stats())
        # Storage-backend counters (kb.segments.* for segment sets); the
        # in-memory backend keeps no registry, so this is a no-op on the
        # default path.
        backend_perf = getattr(
            getattr(self._kb, "backend", None), "perf", None
        )
        if backend_perf is not None:
            registry.merge(backend_perf)
        return registry.snapshot()
