"""The long-lived concurrent serving layer over the QA pipeline.

:class:`ResilientServer` accepts questions from many callers, runs them on
a fixed worker pool, and guarantees the **resolution invariant**: every
submitted request's future resolves to an :class:`repro.core.system.Answer`
— a real answer, the pipeline's own typed stage failure, or a
serving-layer typed failure (``failure_stage == "serve"``).  Futures never
carry exceptions and are never dropped, including across overload,
shutdown, and hot KB reload.

Overload behavior (docs/reliability.md "Serving & overload behavior"):

* the admission queue is bounded (``max_queue``); a full queue **sheds**
  by policy — ``reject`` resolves the request immediately with
  :class:`~repro.serve.errors.Overloaded`; ``degrade`` re-routes it onto a
  small degraded lane that answers under a tight wall-clock budget
  (``degraded_timeout_s``), trading answer depth for admission;
* every request carries a :class:`repro.reliability.Deadline` from
  admission time, so time spent *queued* counts against the request and
  an expired request is shed at dequeue instead of wasting a worker.

Admission is the server's one concurrency limiter: a worker that takes a
request runs it to the end.  Per-stage circuit breakers
(:class:`~repro.serve.guard.StageGuard`) are installed into the pipeline
so that stage-level failure storms fail fast; they limit no concurrency.

Hot KB reload: :meth:`ResilientServer.hot_reload` swaps the entire system
reference atomically.  Workers read the reference once per request, so
in-flight requests finish against the system they started on — no torn
reads — and the next dequeue picks up the new one.

A system over a segment directory is served like any other: its queries
run on the single-process engine, whose routed scans already touch one
shard, and every worker shares the one mmap'd
:class:`~repro.kb.shard.SegmentedBackend` the system was built over.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future
from dataclasses import dataclass

from repro.core.system import Answer, QuestionAnsweringSystem
from repro.obs.metrics import MetricsRegistry
from repro.reliability.budgets import Deadline
from repro.reliability.errors import InternalError, StageError
from repro.serve.errors import Overloaded, ServerClosed
from repro.serve.guard import StageGuard
from repro.serve.snapshot import load_snapshot, save_snapshot


def peak_rss_mb() -> float | None:
    """This process's peak resident set (VmHWM), in MiB.

    Linux-only (``/proc/self/status``); returns ``None`` elsewhere.  The
    serving layer reports it per replica so the shared-segment claim —
    replicas mmap one segment directory instead of holding one heap copy
    each — is a measured number in ``metrics()`` and the soak report.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return round(int(line.split()[1]) / 1024, 1)
    except OSError:
        return None
    return None

#: Queue sentinel telling a worker to exit.
_STOP = object()

#: The admission shedding policies (see :attr:`ServerConfig.shed_policy`).
SHED_POLICIES: tuple[str, ...] = ("reject", "degrade")


@dataclass(frozen=True)
class ServerConfig:
    """Sizing and policy knobs for :class:`ResilientServer`."""

    #: Bound on the admission queue; a full queue sheds (never blocks).
    max_queue: int = 64
    #: Primary worker pool size.
    workers: int = 4
    #: ``"reject"`` — shed with a typed Overloaded failure; ``"degrade"``
    #: — shed onto the degraded lane (tight budget) first, reject only
    #: when that lane is full too.
    shed_policy: str = "reject"
    #: Degraded-lane pool size and queue bound (used by ``degrade`` only).
    degraded_workers: int = 1
    max_degraded_queue: int = 16
    #: Wall-clock budget of a degraded-lane request, in seconds.
    degraded_timeout_s: float = 0.25
    #: Default per-request deadline when ``submit`` passes none
    #: (``None`` = unlimited).
    default_timeout_s: float | None = None
    #: Breaker tuning (consecutive failures to trip / seconds until a
    #: half-open probe is allowed).
    breaker_failure_threshold: int = 5
    breaker_recovery_s: float = 5.0

    def __post_init__(self) -> None:
        if self.shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"shed_policy must be one of {SHED_POLICIES}, "
                f"got {self.shed_policy!r}"
            )
        if self.max_queue < 1 or self.workers < 1:
            raise ValueError("max_queue and workers must be >= 1")
        # A degraded lane without a worker never serves what it admits,
        # and ``queue.Queue(0)`` is unbounded, not empty.
        if self.degraded_workers < 1:
            raise ValueError("degraded_workers must be >= 1")
        if self.max_degraded_queue < 1:
            raise ValueError("max_degraded_queue must be >= 1")


class _Request:
    """One admitted question: its future, deadline, and lane."""

    __slots__ = ("question", "future", "deadline", "degraded")

    def __init__(
        self, question: str, future: Future, deadline: Deadline, degraded: bool
    ) -> None:
        self.question = question
        self.future = future
        self.deadline = deadline
        self.degraded = degraded


class ResilientServer:
    """Admission-controlled concurrent serving over one QA system."""

    def __init__(
        self,
        system: QuestionAnsweringSystem,
        config: ServerConfig | None = None,
    ) -> None:
        self._config = config if config is not None else ServerConfig()
        self._stats = MetricsRegistry()
        self._guard = StageGuard.default(
            failure_threshold=self._config.breaker_failure_threshold,
            recovery_s=self._config.breaker_recovery_s,
            stats=self._stats,
        )
        system.install_stage_guard(self._guard)
        #: Swapped atomically by :meth:`hot_reload`; workers read it once
        #: per request.
        self._system = system
        self._queue: "queue.Queue" = queue.Queue(maxsize=self._config.max_queue)
        self._degraded_queue: "queue.Queue" = queue.Queue(
            maxsize=self._config.max_degraded_queue
        )
        self._stopped = threading.Event()
        self._threads: list[threading.Thread] = []
        for index in range(self._config.workers):
            self._spawn(f"repro-serve-{index}", self._queue)
        if self._config.shed_policy == "degrade":
            for index in range(self._config.degraded_workers):
                self._spawn(f"repro-serve-degraded-{index}", self._degraded_queue)

    def _spawn(self, name: str, source: "queue.Queue") -> None:
        thread = threading.Thread(
            target=self._worker, args=(source,), name=name, daemon=True
        )
        thread.start()
        self._threads.append(thread)

    # -- admission ------------------------------------------------------

    def submit(self, question: str, timeout_s: float | None = None) -> Future:
        """Admit one question; returns a future resolving to an Answer.

        Never blocks and never raises: overload, closure and internal
        errors all resolve the future with a typed-failure Answer.
        """
        future: Future = Future()
        self._stats.inc("serve.submitted")
        if self._stopped.is_set():
            self._stats.inc("serve.closed_rejections")
            self._resolve_failure(
                future, question, ServerClosed("server is stopped")
            )
            return future
        seconds = timeout_s if timeout_s is not None else self._config.default_timeout_s
        request = _Request(question, future, Deadline(seconds), degraded=False)
        try:
            self._queue.put_nowait(request)
            return future
        except queue.Full:
            pass
        if self._config.shed_policy == "degrade":
            request.degraded = True
            try:
                self._degraded_queue.put_nowait(request)
                self._stats.inc("serve.shed.degraded")
                return future
            except queue.Full:
                pass
        self._stats.inc("serve.shed.rejected")
        self._resolve_failure(
            future,
            question,
            Overloaded(f"admission queue full ({self._config.max_queue} waiting)"),
        )
        return future

    def answer(self, question: str, timeout_s: float | None = None) -> Answer:
        """Synchronous convenience over :meth:`submit`."""
        return self.submit(question, timeout_s=timeout_s).result()

    # -- workers --------------------------------------------------------

    def _worker(self, source: "queue.Queue") -> None:
        while True:
            item = source.get()
            if item is _STOP:
                return
            try:
                self._serve_one(item)
            except BaseException:  # the resolution invariant is absolute
                if not item.future.done():
                    item.future.set_result(
                        Answer(
                            question=item.question,
                            failure=InternalError("serving worker crashed").describe(),
                            failure_stage="internal",
                        )
                    )

    def _serve_one(self, request: _Request) -> None:
        if request.deadline.expired():
            # The request's budget died in the queue; shed it now rather
            # than spend a worker computing an answer nobody is awaiting.
            self._stats.inc("serve.expired_in_queue")
            self._resolve_failure(
                request.future,
                request.question,
                Overloaded("deadline expired while queued"),
            )
            return
        system = self._system  # one atomic read; hot_reload swaps the ref
        deadline = request.deadline
        if request.degraded:
            budget = min(deadline.remaining(), self._config.degraded_timeout_s)
            deadline = Deadline(budget)
        answer = system.answer(request.question, deadline=deadline)
        if request.degraded:
            answer.degraded.append("serve:degraded-admission")
        self._stats.inc("serve.completed")
        request.future.set_result(answer)

    def _resolve_failure(
        self, future: Future, question: str, error: StageError
    ) -> None:
        future.set_result(
            Answer(
                question=question,
                failure=error.describe(),
                failure_stage=error.stage_value,
            )
        )

    # -- warm state & hot reload ---------------------------------------

    def hot_reload(self, system: QuestionAnsweringSystem) -> None:
        """Swap in a new system (e.g. over a rebuilt KB) under live load.

        The stage guard moves to the new system; the reference swap is
        atomic, in-flight requests finish on the system they started on.
        The replaced system loses the guard, so its own ``answer()`` no
        longer fails fast on this server's breakers; a stage already
        running there keeps the guard it entered.
        """
        replaced = self._system
        system.install_stage_guard(self._guard)
        self._system = system
        if replaced is not system:
            self._uninstall_guard(replaced)
        self._stats.inc("serve.reloads")

    def _uninstall_guard(self, system: QuestionAnsweringSystem) -> None:
        """Remove this server's guard from ``system``, leaving any other
        guard installed there alone."""
        if system.config.stage_guard is self._guard:
            system.install_stage_guard(None)

    def save_snapshot(self, path) -> dict:
        """Persist the current system's warm caches (atomic write)."""
        return save_snapshot(self._system, path)

    def restore_snapshot(self, path) -> dict[str, int]:
        """Load a warm-state snapshot into the current system; the
        snapshot's own KB fingerprint check decides acceptance."""
        return load_snapshot(self._system, path)

    @property
    def system(self) -> QuestionAnsweringSystem:
        return self._system

    @property
    def guard(self) -> StageGuard:
        return self._guard

    # -- lifecycle ------------------------------------------------------

    def stop(self, timeout_s: float = 10.0) -> None:
        """Stop accepting work, drain workers, resolve leftovers.

        Requests still queued when the workers exit are resolved with a
        typed :class:`ServerClosed` failure — stop never strands a future.
        Once the workers have joined, the served system loses the stage
        guard, so it answers on its own again.
        """
        if self._stopped.is_set():
            return
        self._stopped.set()
        for thread in self._threads:
            source = (
                self._degraded_queue if "degraded" in thread.name else self._queue
            )
            source.put(_STOP)
        for thread in self._threads:
            thread.join(timeout=timeout_s)
        self._uninstall_guard(self._system)
        for source in (self._queue, self._degraded_queue):
            while True:
                try:
                    item = source.get_nowait()
                except queue.Empty:
                    break
                if item is _STOP or item.future.done():
                    continue
                self._stats.inc("serve.closed_rejections")
                self._resolve_failure(
                    item.future,
                    item.question,
                    ServerClosed("server stopped before the request ran"),
                )

    def __enter__(self) -> "ResilientServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- observability --------------------------------------------------

    def metrics(self) -> dict:
        """The unified ``repro.metrics/v1`` document for server + system.

        Serving-layer families are bounded by construction: ``serve.*``
        counters are fixed names, ``breaker.*`` gauges are keyed per
        *stage* — cardinality never grows with traffic.
        """
        registry = MetricsRegistry()
        registry.merge(self._stats)
        registry.set_gauge("serve.queue.depth", self._queue.qsize())
        registry.set_gauge("serve.queue.capacity", self._config.max_queue)
        registry.set_gauge(
            "serve.degraded_queue.depth", self._degraded_queue.qsize()
        )
        registry.set_gauge("serve.workers", self._config.workers)
        rss = peak_rss_mb()
        if rss is not None:
            registry.set_gauge("serve.replica.peak_rss_mb", rss)
        for family, values in self._guard.snapshot().items():
            for field_name, value in values.items():
                registry.set_gauge(f"{family}.{field_name}", value)
        registry.merge_snapshot(self._system.metrics())
        return registry.snapshot()
