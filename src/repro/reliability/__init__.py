"""Reliability layer: typed failures, budgets, fault injection, fallbacks.

The production contract (``docs/reliability.md``) is that
:meth:`repro.core.system.QuestionAnsweringSystem.answer` **never raises**:
every failure inside a pipeline stage is converted at the stage boundary
into a typed :class:`StageError` recorded on ``Answer.failure``, and a
batch (`answer_many`) always completes with one ``Answer`` per question.

Modules:

* :mod:`repro.reliability.errors` — the stage taxonomy and error classes;
* :mod:`repro.reliability.budgets` — per-stage wall-clock deadlines;
* :mod:`repro.reliability.faults` — the deterministic fault injector that
  the test harness uses to force failures at any stage boundary;
* :mod:`repro.reliability.fallback` — degraded-mode extraction used when
  the dependency parse is unavailable.
"""

from repro.reliability.errors import (
    STAGES,
    AnnotationError,
    BudgetExceeded,
    CircuitOpenError,
    ExecutionError,
    ExtractionError,
    InternalError,
    MappingError,
    QueryGenerationError,
    Stage,
    StageError,
    StageTimeout,
    TypeCheckError,
    error_for,
)
from repro.reliability.budgets import Deadline
from repro.reliability.faults import FaultInjector, FaultSpec
from repro.reliability.fallback import KeywordPatternExtractor

__all__ = [
    "Stage",
    "STAGES",
    "StageError",
    "AnnotationError",
    "ExtractionError",
    "MappingError",
    "QueryGenerationError",
    "ExecutionError",
    "TypeCheckError",
    "StageTimeout",
    "BudgetExceeded",
    "InternalError",
    "CircuitOpenError",
    "error_for",
    "Deadline",
    "FaultInjector",
    "FaultSpec",
    "KeywordPatternExtractor",
]
