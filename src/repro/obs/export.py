"""Rendering and JSON export for traces and metrics.

Thin, dependency-free formatting helpers shared by the CLI (`ask --trace`,
`explain`, `eval --metrics-out`) and the CI metrics job.  The data model
lives in :mod:`repro.obs.trace` / :mod:`repro.obs.metrics`; this module
only shapes it for humans and files.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.obs.metrics import METRICS_SCHEMA
from repro.obs.trace import Span

#: Schema identifier stamped on exported trace documents.
TRACE_SCHEMA = "repro.trace/v1"


def render_span_tree(root: Span) -> str:
    """The plain-text span tree (one `- name (ms) [attrs]` line per span).

    >>> span = Span("answer", {"question": "who?"})
    >>> span.close()
    >>> render_span_tree(span).startswith("- answer (")
    True
    """
    return root.render()


def trace_document(root: Span) -> dict:
    """JSON-ready document for one trace tree."""
    return {"schema": TRACE_SCHEMA, "trace": root.to_dict()}


def write_json(document: dict, path: str | Path) -> Path:
    """Write any JSON document with a trailing newline; returns the path."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, default=_jsonable)
        handle.write("\n")
    return path


def write_metrics(snapshot: dict, path: str | Path) -> Path:
    """Write a :meth:`MetricsRegistry.snapshot` document to ``path``.

    Refuses documents that do not carry the expected schema stamp, so a
    caller cannot silently ship some other dict (an engine's
    ``cache_stats()``, say) where the unified schema is expected.
    """
    if snapshot.get("schema") != METRICS_SCHEMA:
        raise ValueError(
            f"not a {METRICS_SCHEMA} document: schema={snapshot.get('schema')!r}"
        )
    return write_json(snapshot, path)


def render_metrics(snapshot: dict) -> str:
    """Plain-text summary of a unified metrics document."""
    lines = [f"metrics ({snapshot.get('schema', 'unknown schema')})"]
    histograms = snapshot.get("histograms", {})
    if histograms:
        lines.append("histograms:")
        for name, entry in histograms.items():
            lines.append(
                f"  {name:<40} count={entry['count']:<6} "
                f"total={entry['total']:<12} mean={entry['mean']}"
            )
    counters = snapshot.get("counters", {})
    if counters:
        lines.append("counters:")
        for name, value in counters.items():
            lines.append(f"  {name} = {value}")
    gauges = snapshot.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        for name, value in gauges.items():
            lines.append(f"  {name} = {value}")
    return "\n".join(lines)


def _jsonable(value: Any):
    """Last-resort JSON coercion for attribute values (IRIs, enums, ...)."""
    return str(value)
