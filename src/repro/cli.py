"""Command-line interface.

    python -m repro ask "Which book is written by Orhan Pamuk?"
    python -m repro ask --extensions "When did Frank Herbert die?"
    python -m repro ask --trace "Who wrote The Pillars of the Earth?"
    python -m repro explain "Who wrote The Pillars of the Earth?"
    python -m repro eval --verbose --metrics-out metrics.json
    python -m repro sparql "SELECT ?x WHERE { ?x a dbont:Book } LIMIT 3"
    python -m repro plan "SELECT ?x WHERE { ?x a dbont:Book }"
    python -m repro mine die bear write
    python -m repro info
    python -m repro serve --shed-policy degrade --snapshot warm.snapshot
    python -m repro soak --duration 60 --quick
    python -m repro kb build-segments --shards 8 --out segments/
    python -m repro ask --kb-backend segments --kb-path segments/ "..."

Every pipeline-facing command (``ask`` / ``eval`` / ``explain``) shares one
declarative flag table (:data:`PIPELINE_FLAGS`): each entry maps an argparse
flag either straight onto a :class:`repro.core.PipelineConfig` field (via
``PipelineConfig.updated``) or through a small builder, so a flag behaves
identically everywhere and adding one is a one-line change.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.api import (
    PipelineConfig,
    QuestionAnsweringSystem,
    load_curated_kb,
    load_kb,
)
from repro.obs.export import render_span_tree, write_metrics
from repro.qald import (
    QaldEvaluator,
    format_outcomes,
    format_table2,
    load_dev_questions,
    load_questions,
)
from repro.qald.report import format_category_breakdown
from repro.rdf import Literal
from repro.sparql.results import AskResult

# ---------------------------------------------------------------------------
# Declarative flag -> PipelineConfig plumbing (shared by ask/eval/explain)
# ---------------------------------------------------------------------------


def _apply_extensions(config: PipelineConfig, on: bool) -> PipelineConfig:
    return config.with_extensions() if on else config


def _apply_faults(config: PipelineConfig, specs: list[str]) -> PipelineConfig:
    from repro.reliability import FaultInjector, FaultSpec

    injector = FaultInjector([FaultSpec.parse(text) for text in specs])
    return config.with_fault_injector(injector)


@dataclass(frozen=True)
class Flag:
    """One CLI flag and how it lands on :class:`PipelineConfig`.

    Exactly one of ``field``/``apply`` is set: ``field`` names the config
    field the parsed value is written to (through
    :meth:`PipelineConfig.updated`), ``apply`` is a builder for flags that
    need more than a field assignment (extensions bundle, fault injector).
    """

    name: str
    kwargs: dict
    field: str | None = None
    apply: Callable[[PipelineConfig, Any], PipelineConfig] | None = None

    @property
    def dest(self) -> str:
        return self.name.lstrip("-").replace("-", "_")


#: The single source of truth for pipeline flags.  Order is help order.
PIPELINE_FLAGS: tuple[Flag, ...] = (
    Flag(
        "--extensions",
        kwargs=dict(action="store_true",
                    help="enable the section-6 future-work extensions"),
        apply=_apply_extensions,
    ),
    Flag(
        "--max-candidates",
        kwargs=dict(type=int, metavar="N",
                    help="cap candidate queries executed per question "
                         "(truncation is reported, never silent)"),
        field="max_candidates",
    ),
    Flag(
        "--stage-budget-ms",
        kwargs=dict(type=float, metavar="MS",
                    help="wall-clock budget for candidate enumeration + "
                         "execution per question"),
        field="stage_budget_ms",
    ),
    Flag(
        "--timeout",
        kwargs=dict(type=float, metavar="SECONDS",
                    help="per-question wall-clock deadline in seconds "
                         "(checked inside candidate enumeration, not only "
                         "at stage boundaries; truncation is reported)"),
        field="question_timeout_s",
    ),
    Flag(
        "--trace",
        kwargs=dict(action="store_true",
                    help="record a span tree per question "
                         "(docs/observability.md)"),
        field="enable_tracing",
    ),
    Flag(
        "--trace-sample",
        kwargs=dict(type=int, metavar="K",
                    help="with --trace: trace every K-th question only"),
        field="trace_sample_every",
    ),
    Flag(
        "--inject-fault",
        kwargs=dict(action="append", default=[], metavar="STAGE:KIND",
                    help="force a fault at a stage boundary (kind: "
                         "error|timeout|empty; repeatable; for reliability "
                         "testing)"),
        apply=_apply_faults,
    ),
    Flag(
        "--kb-backend",
        kwargs=dict(choices=["memory", "segments"],
                    help="KB storage backend: in-heap dict indexes "
                         "(memory, default) or mmap-loaded on-disk shards "
                         "(segments; needs --kb-path)"),
        field="kb_backend",
    ),
    Flag(
        "--kb-path",
        kwargs=dict(metavar="DIR",
                    help="segment directory for --kb-backend segments "
                         "(written by 'repro kb build-segments')"),
        field="kb_segments_path",
    ),
)


def add_pipeline_flags(command: argparse.ArgumentParser) -> None:
    """Register every :data:`PIPELINE_FLAGS` entry on a subcommand."""
    for flag in PIPELINE_FLAGS:
        command.add_argument(flag.name, dest=flag.dest, **flag.kwargs)


def config_from_args(args: argparse.Namespace) -> PipelineConfig:
    """Fold the parsed pipeline flags into a :class:`PipelineConfig`.

    Flags left at their absent default (``None`` / ``False`` / ``[]``) are
    skipped, so the faithful default configuration is untouched unless a
    flag was actually given.
    """
    config = PipelineConfig()
    for flag in PIPELINE_FLAGS:
        value = getattr(args, flag.dest, None)
        if value is None or value is False or value == []:
            continue
        if flag.apply is not None:
            config = flag.apply(config, value)
        else:
            config = config.updated(**{flag.field: value})
    return config


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Semantic question answering over linked data using relational "
            "patterns (EDBT 2013 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ask = sub.add_parser("ask", help="answer a natural-language question")
    ask.add_argument("question", help="the question text")
    ask.add_argument("--verbose", action="store_true",
                     help="show pipeline internals (triples, queries)")
    add_pipeline_flags(ask)

    explain = sub.add_parser(
        "explain",
        help="answer a question and show the full diagnostic view "
             "(candidate ranking + span tree)",
    )
    explain.add_argument("question", help="the question text")
    add_pipeline_flags(explain)

    evaluate = sub.add_parser("eval", help="run the QALD-2-style benchmark (Table 2)")
    evaluate.add_argument("--verbose", action="store_true",
                          help="list per-question outcomes")
    evaluate.add_argument("--json", metavar="PATH",
                          help="also write a machine-readable report")
    evaluate.add_argument("--metrics-out", metavar="PATH",
                          help="write the unified repro.metrics/v1 document")
    evaluate.add_argument("--dev", action="store_true",
                          help="use the 20-question development split "
                               "instead of the Table-2 set")
    add_pipeline_flags(evaluate)

    sparql = sub.add_parser("sparql", help="run SPARQL against the curated KB")
    sparql.add_argument("query", help="SELECT/ASK query text")

    plan = sub.add_parser("plan", help="show the engine's query plan")
    plan.add_argument("query", help="SELECT/ASK query text")

    mine = sub.add_parser("mine", help="inspect mined relational patterns")
    mine.add_argument("words", nargs="*", default=[],
                      help="words to look up (default: a sample)")

    sub.add_parser("info", help="knowledge-base statistics")
    sub.add_parser("validate", help="check KB consistency against the ontology")

    export = sub.add_parser(
        "export", help="export the curated KB and the mined pattern resource"
    )
    export.add_argument("directory", help="output directory (created if missing)")
    export.add_argument("--format", choices=["nt", "ttl", "both"], default="both",
                        help="graph serialisation(s) to write")

    serve = sub.add_parser(
        "serve",
        help="serve questions from stdin through the resilient serving "
             "layer (one question per line, tab-separated answers out)",
    )
    serve.add_argument("--workers", type=int, default=4, metavar="N",
                       help="worker pool size (default 4)")
    serve.add_argument("--max-queue", type=int, default=64, metavar="N",
                       help="admission queue bound (default 64)")
    serve.add_argument("--shed-policy", choices=["reject", "degrade"],
                       default="reject",
                       help="what to do with requests over the queue bound")
    serve.add_argument("--request-timeout", type=float, metavar="SECONDS",
                       help="per-request deadline (queue wait included)")
    serve.add_argument("--snapshot", metavar="PATH",
                       help="warm-state snapshot file: restored on start "
                            "if valid, saved on shutdown")
    add_pipeline_flags(serve)

    kb = sub.add_parser(
        "kb", help="knowledge-base storage management (segment building)"
    )
    kb_sub = kb.add_subparsers(dest="kb_command", required=True)
    build = kb_sub.add_parser(
        "build-segments",
        help="partition a KB into an on-disk segment directory "
             "(hash-sharded by subject, mmap-served by "
             "--kb-backend segments)",
    )
    build.add_argument("--out", required=True, metavar="DIR",
                       help="segment directory to write (created if missing)")
    build.add_argument("--shards", type=int, default=8, metavar="N",
                       help="number of hash partitions (default 8)")
    build.add_argument("--source", choices=["curated", "synthetic"],
                       default="curated",
                       help="which KB to partition (default curated)")
    build.add_argument("--scale", type=int, default=16, metavar="K",
                       help="synthetic KB scale factor (with "
                            "--source synthetic; default 16)")
    build.add_argument("--seed", type=int, default=13,
                       help="synthetic generator seed (default 13)")

    soak = sub.add_parser(
        "soak",
        help="run the chaos/soak harness against the serving layer and "
             "check the serving invariants (exit 1 on any violation)",
    )
    soak.add_argument("--duration", type=float, default=60.0, metavar="SECONDS",
                      help="how long to drive load (default 60)")
    soak.add_argument("--seed", type=int, default=0,
                      help="chaos schedule seed (reproducible)")
    soak.add_argument("--quick", action="store_true",
                      help="CI smoke mode: smaller fault bursts")
    soak.add_argument("--segmented", action="store_true",
                      help="serve from an on-disk segment directory: the "
                           "worker threads share one mmap'd SegmentedBackend "
                           "(peak RSS reported)")
    soak.add_argument("--json", metavar="PATH",
                      help="write the machine-readable soak report")
    return parser


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _print_answers(kb, result) -> None:
    for answer in result.answers:
        if isinstance(answer, Literal):
            print(answer.lexical)
        else:
            print(kb.label_of(answer))


def _cmd_ask(args: argparse.Namespace) -> int:
    config = config_from_args(args)
    kb = load_kb(config)
    qa = QuestionAnsweringSystem.over(kb, config)
    result = qa.answer(args.question)
    if args.verbose:
        print(result.explanation())
        print()
    if args.trace and result.trace is not None:
        print(render_span_tree(result.trace))
        print()
    if result.truncated:
        print("(truncated: candidate budget exhausted; answers may be partial)")
    for fallback in result.degraded:
        print(f"(degraded: {fallback})")
    if result.boolean is not None:
        print("Yes" if result.boolean else "No")
        return 0
    if not result.answered:
        stage = f" [stage: {result.failure_stage}]" if result.failure_stage else ""
        print(f"(unanswered: {result.failure}{stage})")
        return 1
    _print_answers(kb, result)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Full diagnostic view of one question: the structured report, the
    ranked candidate table with per-candidate outcomes, and the span tree
    (tracing is forced on for this command)."""
    config = config_from_args(args).updated(
        enable_tracing=True, trace_sample_every=1
    )
    kb = load_kb(config)
    qa = QuestionAnsweringSystem.over(kb, config)
    result = qa.answer(args.question)
    print(result.explanation().render_tree())
    return 0 if result.answered else 1


def _cmd_eval(args: argparse.Namespace) -> int:
    config = config_from_args(args)
    kb = load_kb(config)
    qa = QuestionAnsweringSystem.over(kb, config)
    questions = load_dev_questions() if args.dev else load_questions()
    result = QaldEvaluator(kb, qa).evaluate(questions)
    print(format_table2(result))
    print()
    print(format_category_breakdown(result))
    counters = qa.stats.snapshot()["counters"]
    reliability = {
        name: value for name, value in counters.items()
        if name.startswith("reliability.") or name.startswith("execute.candidates_")
    }
    if any(name.startswith("reliability.") for name in reliability):
        print()
        print("reliability counters:")
        for name, value in sorted(reliability.items()):
            print(f"  {name} = {value}")
    if args.verbose:
        print()
        print(format_outcomes(result, verbose=True))
    if args.json:
        import json

        from repro.qald.report import to_json_dict

        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(to_json_dict(result), handle, indent=2)
        print(f"\nJSON report written to {args.json}")
    if args.metrics_out:
        write_metrics(qa.metrics(), args.metrics_out)
        print(f"\nmetrics written to {args.metrics_out}")
    return 0


def _cmd_sparql(args: argparse.Namespace) -> int:
    kb = load_curated_kb()
    result = kb.engine.query(args.query)
    if isinstance(result, AskResult):
        print("true" if result.value else "false")
        return 0
    header = "\t".join(f"?{v.name}" for v in result.variables)
    print(header)
    for row in result.rows:
        print("\t".join("" if t is None else str(t) for t in row))
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    from repro.patty import build_pattern_store

    kb = load_curated_kb()
    store = build_pattern_store(kb)
    words = args.words or ["die", "bear", "write", "marry", "found", "cross"]
    for word in words:
        ranked = store.properties_for(word)
        shown = ", ".join(f"{name}({freq})" for name, freq in ranked[:5])
        print(f"{word:12s} -> {shown or '(no patterns)'}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    kb = load_curated_kb()
    classes = list(kb.ontology.classes())
    print(f"triples:            {len(kb)}")
    print(f"entities:           {len(kb.entities())}")
    print(f"ontology classes:   {len(classes)}")
    print(f"object properties:  {len(kb.ontology.object_properties())}")
    print(f"data properties:    {len(kb.ontology.data_properties())}")
    print(f"surface forms:      {len(kb.surface_index)}")
    print(f"page links:         {len(kb.page_links)}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.kb.validate import format_issues, validate_kb

    issues = validate_kb(load_curated_kb())
    print(format_issues(issues))
    return 0 if not issues else 1


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.sparql.explain import explain

    kb = load_curated_kb()
    print(explain(kb.graph, args.query))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.patty import build_pattern_store
    from repro.patty.export import export_patterns_tsv, export_store_json
    from repro.rdf import write_ntriples, write_turtle

    directory = Path(args.directory)
    directory.mkdir(parents=True, exist_ok=True)
    kb = load_curated_kb()

    if args.format in ("nt", "both"):
        count = write_ntriples(iter(kb.graph), directory / "curated.nt")
        print(f"wrote {count} triples to {directory / 'curated.nt'}")
    if args.format in ("ttl", "both"):
        write_turtle(iter(kb.graph), directory / "curated.ttl")
        print(f"wrote Turtle to {directory / 'curated.ttl'}")

    store = build_pattern_store(kb)
    rows = export_patterns_tsv(store, directory / "patterns.tsv")
    export_store_json(store, directory / "pattern_store.json")
    print(f"wrote {rows} patterns to {directory / 'patterns.tsv'} "
          f"and {directory / 'pattern_store.json'}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Line-oriented serving loop over stdin (the demo/ops entry point).

    Reads one question per line, answers through the
    :class:`repro.serve.ResilientServer` (admission control, breakers,
    bulkheads all active), prints one tab-separated line per answer.  With
    ``--snapshot`` the warm caches are restored on start (when the file is
    valid for the current KB) and saved on shutdown.
    """
    from repro.serve import ResilientServer, ServerConfig, SnapshotError

    config = config_from_args(args)
    kb = load_kb(config)
    qa = QuestionAnsweringSystem.over(kb, config)
    server = ResilientServer(
        qa,
        ServerConfig(
            max_queue=args.max_queue,
            workers=args.workers,
            shed_policy=args.shed_policy,
            default_timeout_s=args.request_timeout,
        ),
    )
    if args.snapshot:
        try:
            counts = server.restore_snapshot(args.snapshot)
            print(f"(warm state restored: {counts})", file=sys.stderr)
        except SnapshotError as error:
            print(f"(starting cold: {error})", file=sys.stderr)
    try:
        for line in sys.stdin:
            question = line.strip()
            if not question:
                continue
            result = server.answer(question)
            if result.boolean is not None:
                print(f"{question}\t{'Yes' if result.boolean else 'No'}")
            elif result.answered:
                labels = "\t".join(
                    answer.lexical if isinstance(answer, Literal)
                    else kb.label_of(answer)
                    for answer in result.answers
                )
                print(f"{question}\t{labels}")
            else:
                stage = result.failure_stage or "?"
                print(f"{question}\t(unanswered [{stage}]: {result.failure})")
    finally:
        server.stop()
        if args.snapshot:
            header = server.save_snapshot(args.snapshot)
            print(f"(warm state saved: {header['counts']})", file=sys.stderr)
    return 0


def _cmd_kb(args: argparse.Namespace) -> int:
    """KB storage management: currently the segment builder."""
    import os

    from repro.kb import build_segments, load_synthetic_kb

    if args.kb_command != "build-segments":  # argparse enforces this
        raise SystemExit(f"unknown kb command {args.kb_command!r}")
    if args.source == "synthetic":
        kb = load_synthetic_kb(scale=args.scale, seed=args.seed)
    else:
        kb = load_curated_kb()
    manifest = build_segments(kb.graph, args.out, shards=args.shards)
    sizes = manifest["shard_triples"]
    print(f"wrote {manifest['shards']} shards to {args.out}")
    print(f"triples:     {manifest['triples']} "
          f"(largest shard {max(sizes)}, smallest {min(sizes)})")
    print(f"terms:       {manifest['terms']}")
    print(f"fingerprint: {manifest['fingerprint']}")
    print(f"mined the shipped resources in {manifest['mine_s']:.2f}s:")
    for name in manifest["resources"]:
        size = os.path.getsize(os.path.join(args.out, name))
        print(f"  {name:<16} {size:>12,} bytes")
    return 0


def _cmd_soak(args: argparse.Namespace) -> int:
    """Run the chaos/soak harness; the exit code is the CI gate."""
    import faulthandler
    import os
    import tempfile

    from repro.serve.soak import run_soak

    # If the soak deadlocks outright, dump every thread's stack and die
    # instead of hanging the CI job (the harness's own hang timeout covers
    # stuck individual requests; this watchdog covers a stuck harness).
    watchdog_s = args.duration + 120.0
    faulthandler.dump_traceback_later(watchdog_s, exit=True)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            if args.segmented:
                # One segment directory, shared by every serving worker
                # (and the hot-reload twin) through one mmap'd backend —
                # the shared-segment serving mode.
                from repro.kb import build_segments

                segment_dir = os.path.join(tmp, "segments")
                build_segments(load_curated_kb().graph, segment_dir)
                kb = load_kb(segment_dir)
            else:
                kb = load_curated_kb()
            report = run_soak(
                kb,
                duration_s=args.duration,
                seed=args.seed,
                quick=args.quick,
                snapshot_path=os.path.join(tmp, "warm.snapshot"),
            )
    finally:
        faulthandler.cancel_dump_traceback_later()
    print(report.summary())
    if args.json:
        import json

        document = {
            "duration_s": report.duration_s,
            "submitted": report.submitted,
            "resolved": report.resolved,
            "answered": report.answered,
            "typed_failures": report.typed_failures,
            "shed": report.shed,
            "degraded": report.degraded,
            "faulted_controls": report.faulted_controls,
            "chaos_events": report.chaos_events,
            "violations": report.violations,
            "post_soak_identical": report.post_soak_identical,
            "shared_segments": report.shared_segments,
            "peak_rss_mb": report.peak_rss_mb,
            "peak_pending": report.peak_pending,
            "ok": report.ok,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
        print(f"soak report written to {args.json}")
    return 0 if report.ok else 1


_COMMANDS = {
    "ask": _cmd_ask,
    "explain": _cmd_explain,
    "eval": _cmd_eval,
    "sparql": _cmd_sparql,
    "mine": _cmd_mine,
    "info": _cmd_info,
    "validate": _cmd_validate,
    "plan": _cmd_plan,
    "export": _cmd_export,
    "serve": _cmd_serve,
    "soak": _cmd_soak,
    "kb": _cmd_kb,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
