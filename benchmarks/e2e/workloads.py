"""The three workloads.

Each workload sets its system up one or more times (``setup_s`` is the
median), then runs a cold phase and a warm phase.  A phase repeats one
fixed set of operations in passes, each pass in a new seeded order; the
number of passes is ``rate * seconds / 2`` for the phase's rate in the
:class:`Profile`, so a run's work depends on the seed only and two commits
compared on the same seeds do the same work.

Cache state per phase (README.md has the full table):

* ``qald-curated`` — cold: every pass builds a fresh KB and system and
  clears the module-level tokenizer/lemmatizer memos; warm: repeated
  passes on one system.
* ``synth-segments`` — cold: before every question the server hot-reloads
  a fresh system, the engine and per-shard caches are emptied and the
  module memos cleared; warm: repeated passes on the last such system.
* ``sparql-joins`` — cold: engine and per-shard caches cleared before every
  query; warm: engine caches cleared, per-shard caches kept.

Times are reported at a reference host speed (:class:`Timings`).

Under ``--trace 1`` the warm phase runs twice, untraced and then traced, so
the run can report the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import inputs
import prep
from checkout import load_spec
from layers import percentile

clock = time.perf_counter

#: Tail percentiles: the highest with at least ten samples beyond it,
#: capped at p99; the maximum when there are too few samples for any.
TAIL_LADDER = (99, 95, 90, 75, 50)

#: Calibration time, in ms, that reported times are scaled to: about the
#: 10th percentile of :func:`calibration_work` on a quiet 2-vCPU Xeon VM.
REFERENCE_CALIBRATION_MS = 0.6

#: Seconds between calibration samples within a phase.
CALIBRATION_INTERVAL_S = 0.02


def tail_fraction(samples: int) -> float:
    for percent in TAIL_LADDER:
        if samples * (100 - percent) >= 1000:
            return percent / 100
    return 1.0


def calibration_work() -> int:
    """A fixed piece of pure-Python work, about 0.6 ms: string formatting,
    dict updates, small allocations and a sort, the kind of work the
    pipeline itself does.  It runs no code of the program under test."""
    table: dict = {}
    for i in range(1500):
        key = "k%d" % (i * 7919 % 1021)
        table[key] = table.get(key, 0) + len(key)
    return len(sorted(table, key=table.__getitem__))


def calibration_ms() -> float:
    """One timing of :func:`calibration_work`, in ms, with the garbage
    collector off: a collection of the run's own heap is not host speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        calibration_work()
        return (clock() - start) * 1e3
    finally:
        if enabled:
            gc.enable()


def host_factor(calibration_ms: list, quantile: float) -> float:
    """What times taken alongside ``calibration_ms`` are multiplied by to
    read as on a host where the ``quantile`` of those calibration times is
    :data:`REFERENCE_CALIBRATION_MS`."""
    return REFERENCE_CALIBRATION_MS / percentile(calibration_ms, quantile)


@dataclass(frozen=True)
class Profile:
    """Phase sizes as passes per measured second, as (cold, warm).
    ``FULL`` is what BENCHMARK.json measures; ``SMOKE`` is ``--smoke``."""

    #: Measured seconds, half for the cold phase and half for the warm.
    seconds: float
    scale: int
    #: Set-ups of synth-segments (each mines the KB's patterns) and of
    #: sparql-joins; qald-curated sets up once per cold pass.
    setup_reps: int
    sparql_setup_reps: int
    #: Templated questions per template in synth-segments.
    per_template: int
    qald_passes: tuple
    synth_passes: tuple
    sparql_passes: tuple

    def count(self, rate: float) -> int:
        """Passes of a phase at ``rate`` per measured second."""
        return max(1, round(rate * self.seconds / 2))


FULL = Profile(
    seconds=load_spec()["run_seconds"], scale=8, setup_reps=3,
    sparql_setup_reps=21, per_template=16,
    qald_passes=(4, 50), synth_passes=(3, 12), sparql_passes=(5, 6),
)
SMOKE = replace(
    FULL, seconds=1, scale=4, setup_reps=1, sparql_setup_reps=3,
    per_template=5,
)


@dataclass
class Timings:
    """Times of one kind, and how fast the host ran while they were taken.

    A shared host's speed changes under a run in two ways (README.md): it
    switches between a fast and a 1.3-2x slower state several times a
    second, and its fast state drifts by 10-20% over minutes.  So every
    statistic is taken over samples spread across the whole phase, and
    interleaved with them, every :data:`CALIBRATION_INTERVAL_S`, the run
    times :func:`calibration_work`.  Reported times are multiplied by
    :func:`host_factor` of those calibration times.
    """

    #: operation key -> its times in ms (or seconds, for set-ups).
    samples: dict = field(default_factory=dict)
    calibration_ms: list = field(default_factory=list)
    _calibrated_at: float = float("-inf")

    def add(self, key, value: float) -> None:
        self.samples.setdefault(key, []).append(value)
        if clock() - self._calibrated_at >= CALIBRATION_INTERVAL_S:
            self.calibrate()

    def calibrate(self, times: int = 1) -> None:
        self.calibration_ms.extend(calibration_ms() for __ in range(times))
        self._calibrated_at = clock()


class Phase(Timings):
    """Latencies, in ms, of one timed phase, by operation.

    An operation's latency is the fastest of its repetitions: its time in
    the host's fast state.  p50 and tail are taken over operations.  The
    fastest of R repetitions is about their 1/(R+1) quantile, so the host
    factor takes the calibration times at that quantile too: in a slow
    spell, when fast moments are rare, a higher quantile of the
    calibration would miss moments the operations' minimum still finds.
    """

    def add(self, key, seconds: float) -> None:
        super().add(key, seconds * 1e3)

    def summary(self) -> dict:
        """p50 and tail in ms at the reference speed, the same as measured,
        the tail's fraction, the host factor, and how they were taken."""
        best = [min(latencies) for latencies in self.samples.values()]
        tail = tail_fraction(len(best))
        repetitions = min(len(latencies) for latencies in self.samples.values())
        measured = {"p50": statistics.median(best), "tail": percentile(best, tail)}
        factor = host_factor(self.calibration_ms, 1 / (repetitions + 1))
        return {
            **{name: value * factor for name, value in measured.items()},
            "measured": measured,
            "factor": factor,
            "fraction": tail,
            "how": f"over {len(best)} operations, each the fastest of its "
                   f"{repetitions} repetitions",
        }


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: Set-up times in seconds, all under one key.
    setups: Timings = field(default_factory=Timings)
    phases: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    answered: int = 0
    #: Workload-level check failures (each makes the run incorrect).
    problems: list = field(default_factory=list)

    def record(self, ok: bool, answered: bool) -> None:
        self.attempted += 1
        self.failed += not ok
        self.answered += bool(answered)

    def setup_summary(self) -> dict:
        """The median set-up in seconds at the reference speed, the same
        as measured, the host factor, and how many set-ups there were.

        The factor comes from the 10th percentile of every calibration of
        the run: a set-up is calibrated only after it ends, so its own
        calibrations describe moments, not the seconds a set-up takes.
        """
        times = self.setups.samples["setup"]
        factor = host_factor([
            sample for timings in (self.setups, *self.phases.values())
            for sample in timings.calibration_ms
        ], 0.1)
        return {"median": statistics.median(times) * factor,
                "measured": statistics.median(times),
                "factor": factor, "count": len(times)}


class NoTrace:
    """Stands in for :class:`layers.LayerTrace` in untraced runs."""

    enabled = False
    active = False

    def begin_setup(self):
        return None

    def end_setup(self, root) -> None:
        pass

    def setup_span(self, layer: str):
        return nullcontext()

    def start_ops(self) -> None:
        pass

    def uninstall(self) -> None:
        pass

    def begin_op(self):
        return None

    def end_op(self, root) -> None:
        pass

    def detached_op(self, start: float):
        return None

    def submitting(self, op) -> None:
        pass

    def fold(self, root) -> None:
        pass


def warm_phases(trace, run_phase) -> None:
    """Run the warm phase: once untraced, or untraced then traced."""
    run_phase("warm")
    if trace.enabled:
        trace.start_ops()
        run_phase("warm_traced")
        trace.uninstall()


def timed_setup(outcome: Outcome, trace, build):
    """Time one set-up (after a collection, so earlier garbage is not
    charged to it) and return what ``build`` built."""
    gc.collect()
    root = trace.begin_setup()
    start = clock()
    built = build()
    elapsed = clock() - start
    trace.end_setup(root)
    outcome.setups.add("setup", elapsed)
    outcome.setups.calibrate(5)
    return built


def clear_module_memos() -> None:
    """Empty the module-level lru_caches of the tokenizer and lemmatizer."""
    from repro.nlp import morphology, tokenizer

    for module in (tokenizer, morphology):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


# ---------------------------------------------------------------------------
# qald-curated
# ---------------------------------------------------------------------------


def qald_curated(profile: Profile, rng, trace) -> Outcome:
    from repro.api import QuestionAnsweringSystem, load_curated_kb

    outcome = Outcome()
    questions = inputs.qald_questions()
    gold = inputs.qald_gold()
    reference: dict = {}

    def build():
        with trace.setup_span("kb.load"):
            kb = load_curated_kb()
        return QuestionAnsweringSystem.over(kb)

    def one_pass(system, phase: Phase) -> None:
        order = list(questions)
        rng.shuffle(order)
        answers = {}
        if trace.active:
            before = system.metrics()["counters"]
        for question in order:
            root = trace.begin_op()
            start = clock()
            answer = system.answer(question.text)
            phase.add(question.qid, clock() - start)
            trace.end_op(root)
            answers[question.qid] = answer
        if trace.active:
            trace.absorb_counters(before, system.metrics()["counters"])
        scored = [inputs.qald_outcome(gold[qid], answers[qid]) for qid in gold]
        answered = sum(a for a, __ in scored)
        correct = sum(c for __, c in scored)
        drift = (f"QALD drift: {answered} answered / {correct} correct, "
                 f"expected {inputs.QALD_ANSWERED}/{inputs.QALD_CORRECT}")
        if ((answered, correct) != (inputs.QALD_ANSWERED, inputs.QALD_CORRECT)
                and drift not in outcome.problems):
            outcome.problems.append(drift)
        for qid, answer in answers.items():
            result = (frozenset(answer.answers), answer.boolean)
            expected = reference.setdefault(qid, result)
            outcome.record(
                result == expected and answer.failure_stage != "internal",
                answer.answered,
            )

    cold = outcome.phases["cold"] = Phase()
    for __ in range(profile.count(profile.qald_passes[0])):
        clear_module_memos()
        system = timed_setup(outcome, trace, build)
        trace.start_ops()
        one_pass(system, cold)
        trace.uninstall()

    def warm(name: str) -> None:
        phase = outcome.phases[name] = Phase()
        for __ in range(profile.count(profile.qald_passes[1])):
            one_pass(system, phase)

    warm_phases(trace, warm)
    return outcome


# ---------------------------------------------------------------------------
# synth-segments: templated questions behind ResilientServer
# ---------------------------------------------------------------------------


def check_templated(outcome: Outcome, question, answer) -> None:
    names = inputs.answer_names(answer)
    ok = (names == question.gold
          and answer.failure_stage not in ("serve", "internal"))
    if not ok and outcome.failed < 5:
        print(f"MISMATCH [{question.template}] {question.text!r}: "
              f"got {sorted(names)} ({answer.failure}), "
              f"expected {sorted(question.gold)}")
    outcome.record(ok, answer.answered)


def synth_segments(profile: Profile, rng, trace) -> Outcome:
    from repro.api import QuestionAnsweringSystem, ResilientServer
    from repro.kb import KnowledgeBase, SegmentedBackend, build_dbpedia_ontology
    from repro.patty import build_pattern_store
    from repro.wordnet import (
        build_adjective_map,
        build_similar_property_pairs,
        build_wordnet,
    )

    outcome = Outcome()
    segments = os.path.join(prep.ensure(profile.scale), "segments")
    questions = inputs.templated_sample(profile.scale, profile.per_template)

    def build():
        with trace.setup_span("kb.load"):
            backend = SegmentedBackend(segments).open()
        with trace.setup_span("kb.index"):
            kb = KnowledgeBase.from_backend(build_dbpedia_ontology(), backend)
        return backend, ResilientServer(QuestionAnsweringSystem.over(kb))

    backend = server = None
    try:
        for __ in range(profile.setup_reps):
            if server is not None:
                server.stop()
                backend.close()
                backend = server = None
            backend, server = timed_setup(outcome, trace, build)
        kb = server.system.kb
        # Every cold question gets a system of its own, with empty caches,
        # over the set-up's KB; the resources are mined once, here, untimed.
        wordnet = build_wordnet()
        resources = {
            "pattern_store": build_pattern_store(kb),
            "similar_pairs": build_similar_property_pairs(kb.ontology, wordnet),
            "adjective_map": build_adjective_map(kb.ontology, wordnet),
        }

        def one_pass(phase: Phase, cold: bool) -> None:
            order = list(questions)
            rng.shuffle(order)
            for question in order:
                if cold:
                    clear_module_memos()
                    kb.engine.clear_caches()
                    # The reload also empties every per-shard result cache.
                    server.hot_reload(QuestionAnsweringSystem(kb, **resources))
                if trace.active:
                    before = server.metrics()["counters"]
                op = trace.detached_op(clock())
                trace.submitting(op)
                start = clock()
                answer = server.submit(question.text).result()
                phase.add(question.text, clock() - start)
                trace.submitting(None)
                trace.fold(op)
                if trace.active:
                    trace.absorb_counters(before, server.metrics()["counters"])
                check_templated(outcome, question, answer)

        cold_phase = outcome.phases["cold"] = Phase()
        trace.start_ops()
        for __ in range(profile.count(profile.synth_passes[0])):
            one_pass(cold_phase, cold=True)
        trace.uninstall()

        def warm(name: str) -> None:
            phase = outcome.phases[name] = Phase()
            for __ in range(profile.count(profile.synth_passes[1])):
                one_pass(phase, cold=False)

        warm_phases(trace, warm)
    finally:
        if server is not None:
            server.stop()
            backend.close()
    return outcome


# ---------------------------------------------------------------------------
# sparql-joins
# ---------------------------------------------------------------------------


def sparql_joins(profile: Profile, rng, trace) -> Outcome:
    from repro.kb import SegmentedBackend
    from repro.sparql import ScatterGatherExecutor, SparqlEngine

    outcome = Outcome()
    entry = prep.ensure(profile.scale)
    with open(os.path.join(entry, "oracle.json"), encoding="utf-8") as handle:
        oracle = json.load(handle)

    def build():
        with trace.setup_span("kb.load"):
            backend = SegmentedBackend(os.path.join(entry, "segments")).open()
        engine = SparqlEngine(backend.graph_view())
        executor = ScatterGatherExecutor(backend, processes=0)
        engine.install_scatter(executor)
        return backend, engine, executor

    built = None
    for __ in range(profile.sparql_setup_reps):
        if built is not None:
            built[2].close()
            built[0].close()
        built = timed_setup(outcome, trace, build)
    backend, engine, executor = built

    # Untimed first pass: maps every shard, fills the decode memo, and pins
    # each query's result; it must equal the oracle exactly (every SELECT
    # is fully ordered).  Later results must equal it row for row.
    reference = {}
    for name, text in inputs.QUERIES:
        result = engine.query(text)
        if inputs.canonical(result) != oracle[name]:
            outcome.problems.append(f"{name}: result differs from the oracle")
        reference[name] = result

    def same(result, expected) -> bool:
        if hasattr(expected, "rows"):
            return result.rows == expected.rows
        return result.value == expected.value

    def run_phase(name: str, clear_shards: bool, passes: int) -> None:
        phase = outcome.phases[name] = Phase()
        if trace.active:
            before = engine.stats.snapshot()["counters"]
        for __ in range(passes):
            order = list(inputs.QUERIES)
            rng.shuffle(order)
            for query_name, text in order:
                engine.clear_caches()
                if clear_shards:
                    executor.invalidate_caches()
                root = trace.begin_op()
                start = clock()
                result = engine.query(text)
                phase.add(query_name, clock() - start)
                trace.end_op(root)
                answered = bool(getattr(result, "rows", None) or
                                getattr(result, "value", False))
                outcome.record(same(result, reference[query_name]), answered)
        if trace.active:
            trace.absorb_counters(before, engine.stats.snapshot()["counters"])

    trace.start_ops()
    run_phase("cold", True, profile.count(profile.sparql_passes[0]))
    trace.uninstall()
    warm_phases(trace, lambda name: run_phase(
        name, False, profile.count(profile.sparql_passes[1])))
    executor.close()
    backend.close()
    return outcome


WORKLOADS = {
    "qald-curated": qald_curated,
    "synth-segments": synth_segments,
    "sparql-joins": sparql_joins,
}
