"""The stable top-level facade — import from here, not from submodules.

Everything a downstream user of the reproduction needs lives behind this
one module, so internal reorganisations (which submodule owns ``Answer``,
where the tracer lives, …) never break callers::

    from repro.api import QuestionAnsweringSystem, load_curated_kb

    qa = QuestionAnsweringSystem.over(load_curated_kb())
    result = qa.answer("Which book is written by Orhan Pamuk?")
    print(result.answers)
    print(result.explanation())          # structured, str() == report text

Batch answering without holding a system yourself (answered in input
order on the calling thread; concurrent callers go through
``ResilientServer``)::

    from repro.api import answer_many

    results = answer_many(["Who wrote Dune?", "Where was Kafka born?"])

The exported names (and nothing else here) are covered by the
compatibility promise:

============================  =========================================
``QuestionAnsweringSystem``   the whole pipeline; ``.answer()`` /
                              ``.answer_many()`` / ``.metrics()``
``PipelineConfig``            frozen config; ``.with_extensions()``,
                              ``.with_tracing()``, ``.updated()``
``Answer``                    one question's outcome; ``.explanation()``
``Explanation``               structured account of the pipeline run
``KnowledgeBase``             the curated/synthetic KB container
``load_curated_kb``           the paper's curated DBpedia slice
``load_synthetic_kb``         the larger generated KB (benchmarks)
``load_kb``                   one entry point for any storage backend:
                              curated in-memory, a segment directory,
                              or an explicit ``KBBackend``/config
``answer_many``               one-shot batch helper (below)
``ResilientServer``           long-lived concurrent serving layer:
                              admission control (its one concurrency
                              limit), circuit breakers, warm-state
                              snapshots (``repro.serve``)
``ServerConfig``              sizing/policy knobs for the server
============================  =========================================

Observability (``docs/observability.md``) is reached from these same
objects: ``PipelineConfig.with_tracing()`` turns on span traces
(``Answer.trace``), and ``QuestionAnsweringSystem.metrics()`` emits the
unified ``repro.metrics/v1`` document.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import os

from repro.core.config import PipelineConfig
from repro.core.explain import Explanation
from repro.core.system import Answer, QuestionAnsweringSystem
from repro.kb.backend import KBBackend
from repro.kb.builder import KnowledgeBase
from repro.kb.dataset import load_curated_kb
from repro.kb.generator import load_synthetic_kb
from repro.kb.schema import build_dbpedia_ontology
from repro.kb.shard import SegmentedBackend
from repro.serve.server import ResilientServer, ServerConfig

__all__ = [
    "QuestionAnsweringSystem",
    "PipelineConfig",
    "Answer",
    "Explanation",
    "KnowledgeBase",
    "load_curated_kb",
    "load_synthetic_kb",
    "load_kb",
    "answer_many",
    "ResilientServer",
    "ServerConfig",
]


def load_kb(
    source: "str | os.PathLike | KBBackend | PipelineConfig | None" = None,
) -> KnowledgeBase:
    """One entry point for loading a knowledge base from any storage.

    ``source`` selects the backend:

    * ``None`` or ``"curated"`` — the curated in-memory KB
      (:func:`load_curated_kb`), unchanged default behaviour;
    * a path (``str``/``PathLike``) to a segment directory written by
      ``repro kb build-segments`` — served out-of-core through
      :class:`repro.kb.SegmentedBackend`;
    * a :class:`repro.kb.KBBackend` instance — wrapped directly via
      :meth:`KnowledgeBase.from_backend`;
    * a :class:`PipelineConfig` — resolved from its ``kb_backend`` /
      ``kb_segments_path`` fields (what the CLI passes through).
    """
    if source is None or source == "curated":
        return load_curated_kb()
    if isinstance(source, PipelineConfig):
        if source.kb_backend == "memory":
            return load_curated_kb()
        if source.kb_backend == "segments":
            if not source.kb_segments_path:
                raise ValueError(
                    "kb_backend='segments' needs kb_segments_path "
                    "(CLI: --kb-path DIR, written by "
                    "'repro kb build-segments')"
                )
            return load_kb(source.kb_segments_path)
        raise ValueError(f"unknown kb_backend {source.kb_backend!r}")
    if isinstance(source, KBBackend):
        return KnowledgeBase.from_backend(build_dbpedia_ontology(), source)
    path = os.fspath(source)
    return KnowledgeBase.from_backend(
        build_dbpedia_ontology(), SegmentedBackend(path)
    )


def answer_many(
    questions: Sequence[str] | Iterable[str],
    *,
    kb: KnowledgeBase | None = None,
    config: PipelineConfig | None = None,
) -> list[Answer]:
    """Answer a batch of questions in one call, results in input order.

    Builds a :class:`QuestionAnsweringSystem` over ``kb`` (the curated KB
    when omitted) and answers the questions one after another — the
    convenience wrapper around
    :meth:`QuestionAnsweringSystem.answer_many` for callers who do not
    need to keep the system (and its warm caches) around.  Constructing
    the system dominates one-shot cost, so hold your own instance when
    answering repeatedly.
    """
    system = QuestionAnsweringSystem.over(
        kb if kb is not None else load_curated_kb(), config
    )
    return system.answer_many(questions)
