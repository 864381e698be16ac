"""Span-based tracing for the answering pipeline.

A **trace** is a tree of :class:`Span` objects rooted at one ``answer()``
call.  The :class:`QuestionAnsweringSystem` opens a root span per traced
question, one child span per pipeline stage (``annotate`` / ``extract`` /
``map`` / ``generate`` / ``execute``, with per-candidate ``typecheck``
sub-spans), and the instrumented components — the SPARQL engine's caches,
the similarity memo, the mapper's candidate ranking — attach events and
instant sub-spans to whatever span is open on the current thread.

Design constraints (docs/observability.md):

* **No-op by default.** Tracing is off unless
  ``PipelineConfig.enable_tracing`` is set; the default tracer is
  :data:`NULL_TRACER`, whose every operation is a constant-time early
  return, so tier-1 throughput is unchanged (the overhead guard in
  ``tests/obs/test_overhead.py`` pins this at <2%).
* **Thread-correct.** The open-span stack is thread-local, so the serving
  layer's worker threads each build their own tree and events from
  shared components (the engine cache, the similarity memo) land on the
  span of the question that caused them.
* **Sampled.** ``sample_every=n`` traces every n-th root; non-sampled
  questions take the no-op path after one counter increment.

>>> tracer = Tracer()
>>> root = tracer.begin_trace("answer", question="who?")
>>> with tracer.span("annotate") as span:
...     tracer.event("cache", outcome="miss")
>>> tracer.end_trace(root)
>>> [child.name for child in root.children]
['annotate']
>>> root.children[0].events[0].name
'cache'
>>> root.closed and root.children[0].closed
True
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator


@dataclass
class SpanEvent:
    """A point-in-time annotation inside a span."""

    name: str
    at_ms: float  #: offset from the owning span's start, in milliseconds
    attributes: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "at_ms": round(self.at_ms, 3),
            "attributes": dict(self.attributes),
        }


@dataclass
class Span:
    """One timed node of a trace tree."""

    name: str
    attributes: dict[str, Any] = field(default_factory=dict)
    children: "list[Span]" = field(default_factory=list)
    events: list[SpanEvent] = field(default_factory=list)
    _start: float = field(default_factory=time.perf_counter, repr=False)
    _end: float | None = field(default=None, repr=False)

    def close(self) -> None:
        """Stamp the end time (idempotent: the first close wins)."""
        if self._end is None:
            self._end = time.perf_counter()

    @property
    def closed(self) -> bool:
        return self._end is not None

    @property
    def duration_ms(self) -> float:
        """Wall time in milliseconds (up to now while still open)."""
        end = self._end if self._end is not None else time.perf_counter()
        return (end - self._start) * 1000.0

    def add_event(self, name: str, **attributes: Any) -> SpanEvent:
        event = SpanEvent(
            name=name,
            at_ms=(time.perf_counter() - self._start) * 1000.0,
            attributes=attributes,
        )
        self.events.append(event)
        return event

    def child(self, name: str, **attributes: Any) -> "Span":
        """Attach an *instant* (zero-duration, already closed) child span.

        Used for cache-counter sub-spans whose work happened inside the
        parent's window rather than in a contiguous slice of it.
        """
        span = Span(name=name, attributes=attributes)
        span._start = time.perf_counter()
        span._end = span._start
        self.children.append(span)
        return span

    def walk(self) -> "Iterator[Span]":
        """This span and every descendant, depth-first, in creation order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First span named ``name`` in this subtree (depth-first)."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def to_dict(self) -> dict:
        """JSON-ready representation of the subtree."""
        return {
            "name": self.name,
            "duration_ms": round(self.duration_ms, 3),
            "attributes": dict(self.attributes),
            "events": [event.to_dict() for event in self.events],
            "children": [child.to_dict() for child in self.children],
        }

    def render(self, indent: int = 0) -> str:
        """Plain-text span tree (what ``repro ask --trace`` prints)."""
        pad = "  " * indent
        attrs = _format_attrs(self.attributes)
        lines = [f"{pad}- {self.name} ({self.duration_ms:.2f} ms){attrs}"]
        for event in self.events:
            event_attrs = _format_attrs(event.attributes)
            lines.append(f"{pad}    * {event.name}{event_attrs}")
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)


def _format_attrs(attributes: dict[str, Any]) -> str:
    if not attributes:
        return ""
    parts = []
    for key in attributes:
        value = attributes[key]
        parts.append(f"{key}={value!r}" if isinstance(value, str) else f"{key}={value}")
    return " [" + " ".join(parts) + "]"


class _NullSpanContext:
    """A reusable, allocation-free ``with`` target yielding ``None``.

    ``@contextmanager`` generators cost ~1us per entry — an order of
    magnitude more than the rest of a no-op touch — so the disabled paths
    (null tracer, and :meth:`Tracer.span` outside an open trace) all hand
    back this one shared instance instead.
    """

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpanContext()


class NullTracer:
    """The default, always-off tracer: every operation is a no-op.

    Kept as its own class (rather than a disabled :class:`Tracer`) so the
    hot-path guards — ``if tracer.active:`` — resolve to a plain class
    attribute read instead of a property call.
    """

    enabled: bool = False
    active: bool = False

    def begin_trace(self, name: str, **attributes: Any) -> None:
        return None

    def end_trace(self, root: "Span | None") -> None:
        return None

    def span(self, name: str, **attributes: Any) -> _NullSpanContext:
        return _NULL_SPAN

    def open_span(self, name: str, **attributes: Any) -> None:
        return None

    def close_span(self, span: "Span | None") -> None:
        return None

    def event(self, name: str, **attributes: Any) -> None:
        return None

    def annotate(self, **attributes: Any) -> None:
        return None


#: Shared no-op tracer; the default wired into every component.
NULL_TRACER = NullTracer()


class _OpenSpanContext:
    """``with`` target for one open :class:`Span` on a tracer stack."""

    __slots__ = ("_stack", "_span")

    def __init__(self, stack: "list[Span]", span: "Span") -> None:
        self._stack = stack
        self._span = span

    def __enter__(self) -> "Span":
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._span.close()
        if self._stack and self._stack[-1] is self._span:
            self._stack.pop()
        return False


class Tracer:
    """Builds span trees with a thread-local open-span stack.

    ``sample_every=n`` makes :meth:`begin_trace` record only every n-th
    root trace (deterministically, by call count — no randomness, so runs
    are reproducible); the skipped calls return ``None`` and every nested
    operation becomes a no-op for that question.
    """

    enabled: bool = True

    def __init__(self, sample_every: int = 1) -> None:
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self.sample_every = sample_every
        self._calls = itertools.count()
        self._local = threading.local()

    # -- the open-span stack (per thread) ------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def active(self) -> bool:
        """True when a trace is open on the *current* thread."""
        return bool(getattr(self._local, "stack", None))

    def current(self) -> Span | None:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    # -- root lifecycle ------------------------------------------------

    def begin_trace(self, name: str, **attributes: Any) -> Span | None:
        """Open a root span, or return ``None`` when sampled out."""
        if next(self._calls) % self.sample_every:
            return None
        root = Span(name=name, attributes=attributes)
        self._stack().append(root)
        return root

    def end_trace(self, root: Span | None) -> None:
        """Close ``root`` and pop it (and any leaked children) off the stack."""
        if root is None:
            return
        stack = self._stack()
        while stack:
            span = stack.pop()
            span.close()
            if span is root:
                return
        root.close()

    # -- nested spans, events, attributes ------------------------------

    def span(self, name: str, **attributes: Any):
        """Open a child of the current span; no-op outside a trace.

        Returns a ``with`` target yielding the open :class:`Span` (or
        ``None`` when no trace is open on this thread — the unsampled
        questions' cheap path).
        """
        stack = self._stack()
        if not stack:
            return _NULL_SPAN
        span = Span(name=name, attributes=attributes)
        stack[-1].children.append(span)
        stack.append(span)
        return _OpenSpanContext(stack, span)

    def open_span(self, name: str, **attributes: Any) -> Span | None:
        """Explicit-lifecycle twin of :meth:`span` for the hottest call
        sites: returns the opened child span, or ``None`` outside a trace.

        The pipeline's stage boundaries use this behind an ``is not None``
        guard so an untraced question pays a single comparison per stage
        instead of a context-manager entry.  Pair with :meth:`close_span`;
        a span leaked by an escaping exception is closed by
        :meth:`end_trace`.
        """
        stack = self._stack()
        if not stack:
            return None
        span = Span(name=name, attributes=attributes)
        stack[-1].children.append(span)
        stack.append(span)
        return span

    def close_span(self, span: Span | None) -> None:
        """Close a span from :meth:`open_span`, popping it (and any spans
        leaked open above it) off this thread's stack."""
        if span is None:
            return
        stack = self._stack()
        for position in range(len(stack) - 1, -1, -1):
            if stack[position] is span:
                while len(stack) > position:
                    stack.pop().close()
                return
        span.close()

    def event(self, name: str, **attributes: Any) -> None:
        """Record an event on the current span (dropped outside a trace)."""
        current = self.current()
        if current is not None:
            current.add_event(name, **attributes)

    def annotate(self, **attributes: Any) -> None:
        """Merge attributes into the current span (dropped outside a trace)."""
        current = self.current()
        if current is not None:
            current.attributes.update(attributes)
