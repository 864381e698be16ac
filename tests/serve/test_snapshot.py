"""Warm-state snapshot: roundtrip, corruption, fingerprint enforcement."""

import json

import pytest

from repro.serve.errors import SnapshotError
from repro.serve.snapshot import SNAPSHOT_SCHEMA, load_snapshot, save_snapshot

QUESTIONS = [
    "Which book is written by Orhan Pamuk?",
    "How tall is Tom Cruise?",
    "Where was Steven Spielberg born?",
]


def warm(qa):
    return [qa.answer(text) for text in QUESTIONS]


def test_roundtrip_restores_counts_and_answers(qa, kb, tmp_path):
    baseline = [a.answers for a in warm(qa)]
    path = tmp_path / "warm.snapshot"
    header = save_snapshot(qa, path)
    assert header["schema"] == SNAPSHOT_SCHEMA
    assert header["counts"]["results"] > 0

    from repro.api import QuestionAnsweringSystem

    fresh = QuestionAnsweringSystem.over(kb)
    fresh.kb.engine.clear_caches()  # the engine is shared with `qa`: go cold
    counts = load_snapshot(fresh, path)
    assert counts["results"] == header["counts"]["results"]
    assert counts["plans"] == header["counts"]["plan_keys"]
    assert counts["mapper_memos"] > 0
    # Same answers, now served from the restored caches.
    assert [a.answers for a in warm(fresh)] == baseline
    assert fresh.stats.counter("snapshot.restored") == 1


def test_restored_caches_actually_hit(qa, kb, tmp_path):
    warm(qa)
    path = tmp_path / "warm.snapshot"
    save_snapshot(qa, path)

    from repro.api import QuestionAnsweringSystem

    fresh = QuestionAnsweringSystem.over(kb)
    load_snapshot(fresh, path)
    before = fresh.kb.engine.cache_stats()["result_cache"]["hits"]
    warm(fresh)
    after = fresh.kb.engine.cache_stats()["result_cache"]["hits"]
    assert after > before


def test_corrupted_payload_is_rejected(qa, tmp_path):
    warm(qa)
    path = tmp_path / "warm.snapshot"
    save_snapshot(qa, path)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(SnapshotError, match="checksum"):
        load_snapshot(qa, path)
    assert qa.stats.counter("snapshot.rejected") == 1


def test_truncated_file_is_rejected(qa, tmp_path):
    warm(qa)
    path = tmp_path / "warm.snapshot"
    save_snapshot(qa, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(SnapshotError):
        load_snapshot(qa, path)


def test_unknown_schema_is_rejected(qa, tmp_path):
    path = tmp_path / "warm.snapshot"
    path.write_bytes(json.dumps({"schema": "repro.snapshot/v999"}).encode() + b"\n")
    with pytest.raises(SnapshotError, match="schema"):
        load_snapshot(qa, path)


def test_missing_file_is_rejected_not_raised_raw(qa, tmp_path):
    with pytest.raises(SnapshotError, match="unreadable"):
        load_snapshot(qa, tmp_path / "nope.snapshot")


def test_graph_mutation_invalidates_the_snapshot(qa, tmp_path):
    """A snapshot is only valid for the exact graph generation it saw."""
    from repro.rdf.namespaces import DBR, RDFS
    from repro.rdf.terms import Literal, Triple

    warm(qa)
    path = tmp_path / "warm.snapshot"
    save_snapshot(qa, path)
    qa.kb.graph.add(
        Triple(DBR["Snapshot_Test"], RDFS.label, Literal("snapshot test"))
    )
    with pytest.raises(SnapshotError, match="fingerprint|KB"):
        load_snapshot(qa, path)


def test_restored_plans_are_recompiled_columnar(qa, kb, tmp_path):
    """Snapshots carry plan *keys*, not plans: restore must compile fresh
    ColumnarQuery objects against the live graph, never reuse pickled
    plans."""
    from repro.api import QuestionAnsweringSystem
    from repro.sparql.columnar import ColumnarQuery

    warm(qa)
    path = tmp_path / "warm.snapshot"
    header = save_snapshot(qa, path)
    assert header["counts"]["plan_keys"] > 0

    fresh = QuestionAnsweringSystem.over(kb)
    engine = fresh.kb.engine
    engine.clear_caches()
    load_snapshot(fresh, path)
    plans = [engine._plan_cache.get(ast) for ast in engine._plan_cache.keys()]
    assert plans
    assert all(isinstance(plan, ColumnarQuery) for plan in plans)
    # Freshly compiled against the live graph: resolved at its generation.
    assert all(
        plan._resolved_generation == fresh.kb.graph.generation
        for plan in plans
    )
