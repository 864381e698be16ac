"""Chaos/soak harness for the serving layer.

:func:`run_soak` drives a :class:`~repro.serve.server.ResilientServer`
under a deterministic concurrent fault schedule and checks the serving
invariants that no unit test can: behavior *under sustained concurrent
load with faults firing mid-request*.

**Chaos schedule** (seeded, reproducible — no randomness beyond the seed):

* *slow-stage faults* — ``slow``-kind :class:`FaultSpec` on the execute
  stage: injected latency, answers unchanged (the wedged-backend shape);
* *breaker-trip storms* — bursts of ``error``-kind execute faults sized
  past the breaker threshold, so the execute breaker trips, rejects
  fast, half-open-probes, and recovers — repeatedly;
* *annotate storms* — ``error``-kind annotate faults matched to dedicated
  marker questions (containing :data:`CHAOS_MARKER`), tripping the
  annotate breaker while control traffic degrades to shallow annotation;
* *snapshot corruption* — a warm snapshot is saved, a corrupted copy is
  restored (must be rejected with a typed
  :class:`~repro.serve.errors.SnapshotError`), then the intact one is
  restored (must succeed);
* *mid-request hot reload* — the serving system is swapped for a twin
  while requests are in flight.

**Invariants asserted** (violations land in ``SoakReport.violations``):

1. every submitted request's future resolves within the hang timeout
   (no deadlock, no stranded future);
2. a request that did not answer carries a failure diagnostic, and every
   *shed* request's failure is serving-typed (``failure_stage="serve"``);
3. no cross-request state bleed: control questions that succeeded
   cleanly (not degraded, not truncated, and no candidate query errored
   or drew an injected fault) match the pre-soak sequential answers
   byte-for-byte.  The executor skips a faulted candidate and answers
   from the next one without a failure, so such answers are counted
   (``SoakReport.faulted_controls``), not compared;
4. after the soak — faults disarmed, breakers reset — the full control
   set answered sequentially is byte-identical to the clean run (warm
   caches poisoned by chaos would show up here).
"""

from __future__ import annotations

import random
import time
from concurrent.futures import Future
from dataclasses import dataclass, field

from repro.core.config import PipelineConfig
from repro.core.system import Answer, QuestionAnsweringSystem
from repro.kb.builder import KnowledgeBase
from repro.kb.shard import SegmentedBackend
from repro.qald.devset import load_dev_questions
from repro.reliability.faults import FaultInjector, FaultSpec
from repro.serve.errors import SnapshotError
from repro.serve.server import ResilientServer, ServerConfig, peak_rss_mb
from repro.serve.snapshot import load_snapshot, save_snapshot

#: Substring marking dedicated chaos questions; match-targeted faults fire
#: only on questions containing it, so control traffic stays comparable.
CHAOS_MARKER = "zzchaos"

#: Seconds a future may stay unresolved after the drive loop ends before
#: the harness calls it a hang (invariant 1).
HANG_TIMEOUT_S = 30.0

#: Candidate outcomes that show a fault, not shared state, shaped an answer.
_FAULTED_OUTCOMES = frozenset({"error", "fault-injected"})


def answer_signature(answer: Answer) -> tuple:
    """A byte-comparable digest of what a question produced."""
    return (
        answer.question,
        tuple(term.n3() for term in answer.answers),
        answer.boolean,
        answer.failure,
        answer.failure_stage,
        answer.truncated,
        tuple(answer.degraded),
    )


@dataclass
class SoakReport:
    """Outcome of one soak run (``ok`` is the CI gate)."""

    duration_s: float
    submitted: int = 0
    resolved: int = 0
    answered: int = 0
    typed_failures: int = 0
    shed: int = 0
    degraded: int = 0
    #: Answered control questions that invariant 3 skipped because a
    #: candidate query errored or drew an injected fault.
    faulted_controls: int = 0
    chaos_events: dict[str, int] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    post_soak_identical: bool = False
    metrics: dict = field(default_factory=dict)
    #: Whether the served KB's backend is a segment directory (every
    #: worker shares its one mmap'd backend), and this replica's peak
    #: resident set — the measured form of the "no per-replica heap copy"
    #: claim.
    shared_segments: bool = False
    peak_rss_mb: float | None = None
    #: The most requests the drive loop held unresolved at once: the
    #: harness keeps only those, checking each request as it resolves.
    peak_pending: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "PASS" if self.ok else f"FAIL ({len(self.violations)} violations)"
        lines = [
            f"soak {status}: {self.submitted} submitted, "
            f"{self.resolved} resolved, {self.answered} answered, "
            f"{self.typed_failures} typed failures, {self.shed} shed, "
            f"{self.degraded} degraded in {self.duration_s:.1f}s "
            f"(at most {self.peak_pending} pending)",
            f"state-bleed check: {self.faulted_controls} control answers "
            f"skipped (a candidate query faulted)",
            "chaos events: "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.chaos_events.items())),
            f"post-soak control answers identical: {self.post_soak_identical}",
            f"shared segments: {self.shared_segments}"
            + (
                f", replica peak RSS {self.peak_rss_mb} MiB"
                if self.peak_rss_mb is not None
                else ""
            ),
        ]
        lines.extend(f"VIOLATION: {v}" for v in self.violations)
        return "\n".join(lines)


def run_soak(
    kb: KnowledgeBase,
    duration_s: float = 10.0,
    seed: int = 0,
    quick: bool = False,
    server_config: ServerConfig | None = None,
    snapshot_path=None,
) -> SoakReport:
    """Run the chaos/soak harness over ``kb``; see the module docstring.

    ``quick`` trims the fault burst sizes (for the CI smoke job);
    ``snapshot_path`` enables the snapshot-corruption chaos events (a
    writable file path, e.g. under a temp directory).
    """
    rng = random.Random(seed)
    faults = FaultInjector()
    config = PipelineConfig().with_fault_injector(faults)
    system = QuestionAnsweringSystem.over(kb, config)
    twin = QuestionAnsweringSystem.over(kb, config)

    controls = [question.text for question in load_dev_questions()]
    clean = {
        text: answer_signature(system.answer(text)) for text in controls
    }

    if server_config is None:
        server_config = ServerConfig(
            max_queue=32,
            workers=4,
            shed_policy="degrade",
            breaker_failure_threshold=3,
            breaker_recovery_s=0.3,
        )
    server = ResilientServer(system, server_config)
    report = SoakReport(duration_s=duration_s)
    report.shared_segments = isinstance(kb.backend, SegmentedBackend)
    events = report.chaos_events
    #: Submitted requests whose futures have not resolved yet.
    pending: list[tuple[str, bool, Future]] = []
    storm_size = server_config.breaker_failure_threshold + (1 if quick else 3)

    def chaos(step: int) -> None:
        """One deterministic chaos event, rotated by step count."""
        kind = step % 5
        if kind == 0:
            faults.arm(
                FaultSpec("execute", "slow", times=8, delay_ms=2.0)
            )
            events["slow_execute"] = events.get("slow_execute", 0) + 1
        elif kind == 1:
            # Breaker storm: enough execute errors to trip the breaker.
            # The fault fires once per *candidate*, and the breaker counts
            # one failure per *question*, so the firing budget is sized
            # well past the per-question candidate count.
            faults.arm(FaultSpec("execute", "error", times=storm_size * 16))
            events["execute_storm"] = events.get("execute_storm", 0) + 1
        elif kind == 2:
            faults.arm(
                FaultSpec("annotate", "error", match=CHAOS_MARKER, times=storm_size)
            )
            for index in range(storm_size):
                submit(f"Who is {CHAOS_MARKER} {step} {index}?", chaos_q=True)
            events["annotate_storm"] = events.get("annotate_storm", 0) + 1
        elif kind == 3 and snapshot_path is not None:
            _snapshot_chaos(server, snapshot_path, report, events)
        elif kind == 4:
            server.hot_reload(twin if server.system is system else system)
            events["hot_reload"] = events.get("hot_reload", 0) + 1

    def submit(text: str, chaos_q: bool = False) -> None:
        future = server.submit(text)
        report.submitted += 1
        pending.append((text, chaos_q, future))

    def resolve(text: str, chaos_q: bool, future: Future, timeout: float) -> None:
        """Invariants 1-3 for one request (``timeout`` 0 for a done one)."""
        try:
            answer = future.result(timeout=timeout)
        except Exception as error:
            report.violations.append(
                f"request did not resolve cleanly ({text!r}): "
                f"{type(error).__name__}: {error}"
            )
            return
        report.resolved += 1
        check_answer(report, clean, text, chaos_q, answer)

    # -- drive loop -----------------------------------------------------
    deadline = time.monotonic() + duration_s
    # Chaos fires in bursts spaced comfortably past the breaker recovery
    # window: the calm stretches in between are what let breakers recover
    # (exercising the half-open/close path) and let clean control answers
    # accumulate for the byte-compare invariant.
    chaos_spacing_s = max(3.0 * server_config.breaker_recovery_s, duration_s / 12.0)
    next_chaos = time.monotonic() + chaos_spacing_s / 2.0
    chaos_step = 0
    while time.monotonic() < deadline:
        if time.monotonic() >= next_chaos:
            chaos(chaos_step)
            chaos_step += 1
            next_chaos = time.monotonic() + chaos_spacing_s
        burst = rng.randint(1, 4)
        for _ in range(burst):
            submit(rng.choice(controls))
        report.peak_pending = max(report.peak_pending, len(pending))
        # Check what resolved and keep only what has not: the harness
        # holds no answer longer than one turn of the loop.
        still = []
        for entry in pending:
            if entry[2].done():
                resolve(*entry, timeout=0)
            else:
                still.append(entry)
        pending[:] = still
        # Let the queue drain a little so admission shedding is exercised
        # but not the only behavior.
        time.sleep(0.001)

    # -- invariant 1: every future still pending resolves in time -------
    for entry in pending:
        resolve(*entry, timeout=HANG_TIMEOUT_S)
    pending.clear()

    # -- invariant 4: post-soak byte-identity ---------------------------
    faults.disarm()
    server.guard.reset()
    server.stop()
    report.post_soak_identical = all(
        answer_signature(system.answer(text)) == clean[text] for text in controls
    )
    if not report.post_soak_identical:
        report.violations.append(
            "post-soak sequential control answers differ from the clean run"
        )
    report.metrics = server.metrics()
    report.peak_rss_mb = peak_rss_mb()
    return report


def check_answer(
    report: SoakReport, clean: dict[str, tuple], text: str, chaos_q: bool,
    answer: Answer,
) -> None:
    """Invariants 2 and 3 for one resolved request."""
    if answer.degraded:
        report.degraded += 1
    if answer.answered:
        report.answered += 1
    elif answer.failure is None:
        report.violations.append(
            f"unanswered request with no failure diagnostic: {text!r}"
        )
    else:
        report.typed_failures += 1
    if answer.failure_stage == "serve":
        report.shed += 1
        if "Overloaded" not in answer.failure and "ServerClosed" not in answer.failure:
            report.violations.append(
                f"shed request without a typed serve failure: "
                f"{answer.failure!r}"
            )
    if not chaos_q:
        check_state_bleed(report, clean, text, answer)


def check_state_bleed(
    report: SoakReport, clean: dict[str, tuple], text: str, answer: Answer
) -> None:
    """Invariant 3 for one control answer: if it ran clean, it must equal
    the pre-soak sequential answer ``clean[text]`` (a signature)."""
    if (
        not answer.answered
        or answer.degraded
        or answer.truncated
        or answer.failure is not None
    ):
        return
    if any(
        status in _FAULTED_OUTCOMES
        for __, status, __detail in answer.candidate_outcomes
    ):
        report.faulted_controls += 1
        return
    if answer_signature(answer) != clean[text]:
        report.violations.append(
            f"cross-request state bleed: {text!r} answered "
            f"differently under load than sequentially"
        )


def _snapshot_chaos(
    server: ResilientServer, path, report: SoakReport, events: dict
) -> None:
    """Save, corrupt-and-expect-rejection, then restore the intact copy."""
    import os

    server.save_snapshot(path)
    corrupt = os.fspath(path) + ".corrupt"
    with open(path, "rb") as handle:
        blob = bytearray(handle.read())
    if blob:
        # The last byte is always inside the pickle payload (the header is
        # line 1), so the flip deterministically breaks the checksum.
        blob[-1] ^= 0xFF
    with open(corrupt, "wb") as handle:
        handle.write(bytes(blob))
    try:
        load_snapshot(server.system, corrupt)
        report.violations.append(
            "corrupted snapshot was accepted (checksum not enforced)"
        )
    except SnapshotError:
        pass
    try:
        server.restore_snapshot(path)
    except SnapshotError as error:
        report.violations.append(f"intact snapshot rejected: {error}")
    events["snapshot_cycle"] = events.get("snapshot_cycle", 0) + 1
