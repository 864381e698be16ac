"""P5 — serving-layer resilience: snapshot restore vs. uninterrupted warmth.

Simulates the crash-safe warm-state story end to end.  Two services answer
the identical replayed QALD workload through ``repro.serve.ResilientServer``:

* **uninterrupted** — one process: a cold pass to earn the caches, then a
  measured warm pass;
* **restarted** — the same cold pass, then the process "dies": its warm
  state is saved with ``save_snapshot``, the server is stopped and
  discarded, and a brand-new system over a freshly loaded KB restores the
  snapshot before running the measured pass.

The measured passes are compared on the result-cache hit rate (the
engine's one cache).  The acceptance bar: the restarted service must reach at least
80% of the uninterrupted warm hit rate, with byte-identical answers across
every pass of both services::

    PYTHONPATH=src python benchmarks/bench_serve_resilience.py \
        --repeats 2 --output BENCH_serve.json

Every pass reports milliseconds per answered question (the cold pass
answers each question once, the measured passes ``--repeats`` times), so
the cold, warm and restored figures compare directly.  The restore
itself — ``restore_snapshot`` into the fresh system — is timed on its
own, in ``restore_ms``.

``--quick`` runs a four-question smoke that checks the machinery (the
restore-ratio and identical-answers gates still apply — the snapshot
mechanism is deterministic, so they hold at any scale).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from repro.core import QuestionAnsweringSystem
from repro.kb import load_curated_kb
from repro.qald.devset import load_dev_questions
from repro.serve import ResilientServer, ServerConfig


def fresh_server() -> ResilientServer:
    """A new system over a freshly loaded KB — no shared cache warmth."""
    system = QuestionAnsweringSystem.over(load_curated_kb())
    return ResilientServer(system, ServerConfig(workers=4))


def answer_signature(answer) -> tuple:
    """Everything observable about one answer, for equality checks."""
    return (
        answer.question,
        tuple(term.n3() for term in answer.answers),
        answer.boolean,
        answer.failure,
        answer.failure_stage,
    )


def cache_totals(server: ResilientServer) -> dict[str, int]:
    """Hits/misses of the engine's result cache, which the snapshot
    layer persists."""
    table = server.system.kb.engine.cache_stats()["result_cache"]
    return {"hits": table["hits"], "misses": table["misses"]}


def replay(
    server: ResilientServer, questions: list[str], repeats: int
) -> tuple[float, list[tuple]]:
    """Answer the workload ``repeats`` times; returns (milliseconds per
    answered question, the last replay's signatures)."""
    start = time.perf_counter()
    signatures: list[tuple] = []
    for _ in range(repeats):
        signatures = [answer_signature(server.answer(q)) for q in questions]
    elapsed = time.perf_counter() - start
    return 1000.0 * elapsed / (repeats * len(questions)), signatures


def measured_pass(
    server: ResilientServer, questions: list[str], repeats: int
) -> tuple[float, list[tuple], float]:
    """Replay the workload and return (ms per question, signatures,
    hit_rate)."""
    before = cache_totals(server)
    per_question_ms, signatures = replay(server, questions, repeats)
    after = cache_totals(server)
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    rate = hits / (hits + misses) if hits + misses else 0.0
    return per_question_ms, signatures, rate


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=2,
                        help="times the measured pass replays the workload")
    parser.add_argument("--output", default=None,
                        help="write the BENCH JSON artifact here")
    parser.add_argument("--quick", action="store_true",
                        help="four-question smoke run for CI")
    args = parser.parse_args(argv)

    questions = [q.text for q in load_dev_questions()]
    if args.quick:
        questions = questions[:4]

    # -- uninterrupted service -----------------------------------------
    with fresh_server() as server:
        cold_ms, cold_sigs = replay(server, questions, 1)
        warm_ms, warm_sigs, warm_rate = measured_pass(
            server, questions, args.repeats
        )

    # -- killed-and-restarted service ----------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "warm.snapshot"
        with fresh_server() as victim:
            victim_cold_ms, victim_sigs = replay(victim, questions, 1)
            header = victim.save_snapshot(path)
        # The old server is stopped and dropped: the "crash".  The restarted
        # process owns a freshly loaded KB and restores the snapshot into it.
        with fresh_server() as restarted:
            start = time.perf_counter()
            restored_counts = restarted.restore_snapshot(path)
            restore_ms = 1000.0 * (time.perf_counter() - start)
            restored_ms, restored_sigs, restored_rate = measured_pass(
                restarted, questions, args.repeats
            )
        snapshot_bytes = header["payload_bytes"]

    restore_ratio = restored_rate / warm_rate if warm_rate else 0.0
    identical = cold_sigs == warm_sigs == victim_sigs == restored_sigs

    result = {
        "benchmark": "serve_resilience",
        "questions": len(questions),
        "repeats": args.repeats,
        "quick": args.quick,
        "uninterrupted": {
            "cold_ms_per_question": round(cold_ms, 4),
            "warm_ms_per_question": round(warm_ms, 4),
            "warm_hit_rate": round(warm_rate, 4),
        },
        "restarted": {
            "cold_ms_per_question": round(victim_cold_ms, 4),
            "restore_ms": round(restore_ms, 4),
            "restored_ms_per_question": round(restored_ms, 4),
            "warm_hit_rate": round(restored_rate, 4),
            "snapshot_bytes": snapshot_bytes,
            "restored_counts": restored_counts,
        },
        "restore_ratio": round(restore_ratio, 4),
        "restore_target": 0.8,
        "restore_ok": restore_ratio >= 0.8,
        "identical_answers": identical,
    }

    print("BENCH " + json.dumps(result))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2)
            handle.write("\n")

    if not identical:
        for label, sigs in (("warm", warm_sigs), ("restored", restored_sigs)):
            for base, other in zip(cold_sigs, sigs):
                if base != other:
                    print(f"MISMATCH ({label}):\n  cold : {base}\n  other: {other}",
                          file=sys.stderr)
        return 1
    return 0 if result["restore_ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
