"""Shared-segment serving: one SegmentedBackend + one scatter executor
behind every ResilientServer worker.

Covers the serving side of the scatter engine: auto-install over
segmented KBs, hot-reload shard-cache invalidation with the cached-vs-cold
byte-identity differential, and a snapshot restore after the shared
executor was rebound to other segments.
"""

import pytest

from repro.api import QuestionAnsweringSystem, load_kb
from repro.kb import SegmentedBackend, build_segments
from repro.obs.metrics import MetricsRegistry
from repro.qald.devset import load_dev_questions
from repro.rdf import Triple, Variable
from repro.serve.server import ResilientServer, ServerConfig
from repro.serve.soak import answer_signature, run_soak
from repro.sparql import SparqlEngine, scatter
from repro.sparql.ast import BGP, Group, OrderCondition, SelectQuery, TermExpr


@pytest.fixture(autouse=True)
def force_fanout(monkeypatch):
    """The curated KB is tiny: keep these queries on the fan-out path
    instead of under the scatter's cardinality gate."""
    monkeypatch.setattr(scatter, "FANOUT_MIN_ROWS", 0)


@pytest.fixture(scope="module")
def segment_dir(kb, tmp_path_factory):
    directory = tmp_path_factory.mktemp("segments")
    build_segments(kb.graph, directory)
    return directory


@pytest.fixture()
def segmented_system(segment_dir):
    return QuestionAnsweringSystem.over(load_kb(segment_dir))


def _star_query():
    s, p, o = Variable("s"), Variable("p"), Variable("o")
    return SelectQuery(
        projection=(s, o),
        where=Group((BGP((Triple(s, p, o),)),)),
        order_by=(
            OrderCondition(TermExpr(s), False),
            OrderCondition(TermExpr(p), False),
            OrderCondition(TermExpr(o), False),
        ),
        limit=50,
    )


def test_segmented_system_installs_shared_scatter(segmented_system):
    server = ResilientServer(segmented_system, ServerConfig(workers=2))
    try:
        assert server.scatter is not None
        assert server.scatter.backend is segmented_system.kb.backend
        gauges = server.metrics()["gauges"]
        assert gauges["serve.scatter.installed"] == 1
    finally:
        server.stop()


def test_in_memory_system_gets_no_scatter(qa):
    server = ResilientServer(qa, ServerConfig(workers=2))
    try:
        assert server.scatter is None
        assert server.metrics()["gauges"]["serve.scatter.installed"] == 0
    finally:
        server.stop()


def test_scatter_can_be_disabled(segmented_system):
    server = ResilientServer(
        segmented_system, ServerConfig(workers=2, enable_scatter=False)
    )
    try:
        assert server.scatter is None
    finally:
        server.stop()


def test_hot_reload_empties_every_shard_cache(segment_dir, segmented_system):
    """Satellite S3: the cached-vs-cold differential across a hot reload.

    Before the reload, repeated queries serve from warm per-shard caches;
    the reload must empty them (fresh misses), and cached, cold, and
    post-reload answers must all be byte-identical.
    """
    server = ResilientServer(segmented_system, ServerConfig(workers=2))
    try:
        backend = segmented_system.kb.backend
        stats = MetricsRegistry()
        probe = SparqlEngine(backend.graph_view(), cache_size=0, stats=stats)
        probe.install_scatter(server.scatter)
        query = _star_query()

        cold = probe.query(query).rows
        misses_cold = stats.snapshot()["counters"]["kb.shard_cache.misses"]
        cached = probe.query(query).rows
        counters = stats.snapshot()["counters"]
        assert counters["kb.shard_cache.hits"] > 0
        assert counters["kb.shard_cache.misses"] == misses_cold
        assert cached == cold

        # Hot reload: a twin system over the same segment directory.  The
        # executor rebinds (same fingerprint) and the
        # generation bump must strand every cached shard result.
        twin = QuestionAnsweringSystem.over(load_kb(segment_dir))
        server.hot_reload(twin)
        assert server.scatter.backend is twin.kb.backend
        assert (
            server.metrics()["counters"]["kb.shard_cache.invalidations"] == 1
        )

        probe_reloaded = SparqlEngine(
            twin.kb.backend.graph_view(), cache_size=0, stats=stats
        )
        probe_reloaded.install_scatter(server.scatter)
        reloaded = probe_reloaded.query(query).rows
        counters = stats.snapshot()["counters"]
        assert counters["kb.shard_cache.misses"] == 2 * misses_cold
        assert reloaded == cold
    finally:
        server.stop()


def test_restore_after_external_rebind_answers_like_a_cold_system(
    kb, segment_dir, segmented_system, tmp_path
):
    """An executor rebound to other segments declines every plan of the
    served system (the foreign-graph check), so a snapshot restore is
    accepted and its warm answers never mix with the other segments."""
    cold = QuestionAnsweringSystem.over(load_kb(segment_dir))
    controls = [question.text for question in load_dev_questions()]
    server = ResilientServer(segmented_system, ServerConfig(workers=2))
    try:
        for text in controls:
            server.answer(text)
        path = tmp_path / "warm.snapshot"
        server.save_snapshot(path)

        # Externally rebind the shared executor to different segments
        # (fewer shards -> different fingerprint).
        drifted_dir = tmp_path / "drifted"
        build_segments(kb.graph, drifted_dir, shards=2)
        drifted = SegmentedBackend(drifted_dir).open()
        try:
            server.scatter.rebind(drifted)
            server.restore_snapshot(path)
            star = _star_query()
            assert (
                segmented_system.kb.engine.query(star).rows
                == cold.kb.engine.query(star).rows
            )
            assert [
                answer_signature(server.answer(text)) for text in controls
            ] == [answer_signature(cold.answer(text)) for text in controls]
            counters = server.metrics()["counters"]
            assert "snapshot.rejected" not in counters
            assert counters["sparql.scatter.foreign_graph_fallbacks"] > 0
        finally:
            drifted.close()
    finally:
        server.stop()


@pytest.mark.slow
def test_segmented_soak_shares_segments(kb, segment_dir, tmp_path):
    report = run_soak(
        load_kb(segment_dir),
        duration_s=3.0,
        quick=True,
        snapshot_path=tmp_path / "warm.snapshot",
    )
    assert report.ok, report.summary()
    assert report.shared_segments
    assert report.peak_rss_mb is None or report.peak_rss_mb > 0
