"""Typed failure taxonomy for the answering pipeline.

Every pipeline stage boundary (annotate -> extract -> map -> generate ->
execute -> typecheck) converts whatever went wrong inside it into exactly
one :class:`StageError` subclass, so callers — and the fault-injection test
harness — can tell *where* a question died without parsing message text.
``Answer.failure`` carries :meth:`StageError.describe`, which always starts
with the class name, and ``Answer.failure_stage`` carries the stage value.
"""

from __future__ import annotations

import enum


class Stage(enum.Enum):
    """The named pipeline stages, in execution order."""

    ANNOTATE = "annotate"
    EXTRACT = "extract"
    MAP = "map"
    GENERATE = "generate"
    EXECUTE = "execute"
    TYPECHECK = "typecheck"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Stage values in pipeline order (the fault-matrix tests iterate this).
STAGES: tuple[str, ...] = tuple(stage.value for stage in Stage)


class StageError(Exception):
    """A failure attributed to one pipeline stage.

    Subclasses fix :attr:`stage`; the two cross-cutting kinds
    (:class:`StageTimeout`, :class:`BudgetExceeded`) take the stage as a
    constructor argument instead.

    >>> err = MappingError("disambiguator blew up")
    >>> err.stage
    <Stage.MAP: 'map'>
    >>> err.describe()
    "MappingError at stage 'map': disambiguator blew up"
    """

    stage: Stage = Stage.EXECUTE  # overridden by every subclass

    def __init__(self, detail: str = "") -> None:
        super().__init__(detail)
        self.detail = detail

    @property
    def name(self) -> str:
        """The taxonomy name (the class name)."""
        return type(self).__name__

    @property
    def stage_value(self) -> str:
        """The stage string for ``Answer.failure_stage`` (subclasses that
        are not attributed to a pipeline stage override this)."""
        return self.stage.value

    def describe(self) -> str:
        """The canonical one-line diagnostic stored on ``Answer.failure``."""
        text = f"{self.name} at stage '{self.stage_value}'"
        return f"{text}: {self.detail}" if self.detail else text

    def trace_event(self) -> tuple[str, dict]:
        """``(name, attributes)`` for the observability layer's failure
        events, so a span records *which* taxonomy class fired without
        parsing :meth:`describe` text.

        >>> MappingError("boom").trace_event()
        ('stage-failure', {'stage': 'map', 'error': 'MappingError', 'detail': 'boom'})
        """
        return (
            "stage-failure",
            {"stage": self.stage_value, "error": self.name, "detail": self.detail},
        )


class AnnotationError(StageError):
    """Tokenisation / tagging / dependency parsing failed."""

    stage = Stage.ANNOTATE


class ExtractionError(StageError):
    """The section-2.1 triple-pattern extractor failed (distinct from the
    legitimate empty bucket, which is the paper's 'cannot process' case)."""

    stage = Stage.EXTRACT


class MappingError(StageError):
    """The section-2.2 slot mapper failed *unexpectedly* (a
    :class:`repro.core.mapping.MappingFailure` is the expected refusal and
    keeps its own diagnostic)."""

    stage = Stage.MAP


class QueryGenerationError(StageError):
    """Candidate-query enumeration (section 2.3) failed."""

    stage = Stage.GENERATE


class ExecutionError(StageError):
    """A candidate SPARQL query failed against the knowledge base."""

    stage = Stage.EXECUTE


class TypeCheckError(StageError):
    """The expected-answer-type filter (section 2.3.2) failed."""

    stage = Stage.TYPECHECK


class StageTimeout(StageError):
    """A stage exceeded its wall-clock deadline (or a timeout was injected)."""

    def __init__(self, stage: Stage | str, detail: str = "") -> None:
        super().__init__(detail)
        self.stage = Stage(stage) if isinstance(stage, str) else stage


class BudgetExceeded(StageError):
    """A stage ran out of its configured work budget (wall time or
    candidate count).  Distinct from :class:`StageTimeout`: a budget is a
    *configured* limit the caller opted into, not an anomaly."""

    def __init__(self, stage: Stage | str, detail: str = "") -> None:
        super().__init__(detail)
        self.stage = Stage(stage) if isinstance(stage, str) else stage


class InternalError(StageError):
    """An exception escaped the guarded pipeline itself — the never-raise
    contract's last resort.  Not attributed to a pipeline stage:
    ``Answer.failure_stage`` carries the literal ``"internal"``, and
    :meth:`describe` keeps the established ``"InternalError: …"`` shape
    (no stage clause) so existing diagnostics are unchanged.

    >>> InternalError("unhandled ValueError: boom").describe()
    'InternalError: unhandled ValueError: boom'
    >>> InternalError().stage_value
    'internal'
    """

    stage = None  # deliberately outside the Stage enum

    @property
    def stage_value(self) -> str:
        return "internal"

    def describe(self) -> str:
        return f"{self.name}: {self.detail}" if self.detail else self.name

    @classmethod
    def from_exception(cls, error: BaseException) -> "InternalError":
        """The canonical wrapper for an escaping exception."""
        return cls(f"unhandled {type(error).__name__}: {error}")


class CircuitOpenError(StageError):
    """The serving layer's circuit breaker for a stage is open: the stage
    was skipped outright instead of being attempted (fail-fast).  Raised by
    the stage guard *before* the stage runs; never counted as a fresh
    breaker failure."""

    def __init__(self, stage: Stage | str, detail: str = "") -> None:
        super().__init__(detail)
        self.stage = Stage(stage) if isinstance(stage, str) else stage


_ERROR_FOR_STAGE: dict[Stage, type[StageError]] = {
    Stage.ANNOTATE: AnnotationError,
    Stage.EXTRACT: ExtractionError,
    Stage.MAP: MappingError,
    Stage.GENERATE: QueryGenerationError,
    Stage.EXECUTE: ExecutionError,
    Stage.TYPECHECK: TypeCheckError,
}


def error_for(stage: Stage | str) -> type[StageError]:
    """The taxonomy class owning a stage.

    >>> error_for("extract").__name__
    'ExtractionError'
    """
    return _ERROR_FOR_STAGE[Stage(stage) if isinstance(stage, str) else stage]
