"""Serving segmented KBs next to scatter executors installed by a caller.

The server installs no scatter executor: a system over a segment
directory answers on the single-process engine.  An executor a caller
installs serves the one backend it was built over, so its per-shard
result caches never reach a hot-reloaded system, and an executor over
other segments declines every plan of the served system (the
foreign-graph check).  The segmented soak runs with every worker on the
one shared segment directory.
"""

import pytest

from repro.api import QuestionAnsweringSystem, load_kb
from repro.kb import SegmentedBackend, build_segments
from repro.obs.metrics import MetricsRegistry
from repro.qald.devset import load_dev_questions
from repro.rdf import Triple, Variable
from repro.serve.server import ResilientServer, ServerConfig
from repro.serve.soak import answer_signature, run_soak
from repro.sparql import ScatterGatherExecutor, SparqlEngine, scatter
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


def test_hot_reload_empties_every_shard_cache(segment_dir, segmented_system):
    """The cached-vs-cold differential across a hot reload.

    Before the reload, repeated queries serve from an executor's warm
    per-shard caches.  The reloaded system sees none of them: the warm
    executor declines its plans (another backend), and an executor over
    the reloaded backend starts with every shard cache empty.  Cached,
    cold and post-reload answers are byte-identical.
    """
    stats = MetricsRegistry()
    warm = ScatterGatherExecutor(segmented_system.kb.backend, stats=stats)
    server = ResilientServer(segmented_system, ServerConfig(workers=2))
    try:
        probe = SparqlEngine(
            segmented_system.kb.backend.graph_view(), cache_size=0, stats=stats
        )
        probe.install_scatter(warm)
        query = _star_query()

        cold = probe.query(query).rows
        misses_cold = stats.counter("kb.shard_cache.misses")
        cached = probe.query(query).rows
        assert stats.counter("kb.shard_cache.hits") > 0
        assert stats.counter("kb.shard_cache.misses") == misses_cold
        assert cached == cold

        # Hot reload: a twin system over the same segment directory.
        twin = QuestionAnsweringSystem.over(load_kb(segment_dir))
        server.hot_reload(twin)
        assert server.system is twin
        backend = twin.kb.backend
        assert backend is not segmented_system.kb.backend

        stale = SparqlEngine(backend.graph_view(), cache_size=0, stats=stats)
        stale.install_scatter(warm)
        assert stale.query(query).rows == cold
        assert stats.counter("sparql.scatter.foreign_graph_fallbacks") == 1

        with ScatterGatherExecutor(backend, stats=stats) as fresh:
            reloaded = SparqlEngine(
                backend.graph_view(), cache_size=0, stats=stats
            )
            reloaded.install_scatter(fresh)
            assert reloaded.query(query).rows == cold
        assert stats.counter("kb.shard_cache.misses") == 2 * misses_cold
    finally:
        warm.close()
        server.stop()


def test_restore_after_external_rebind_answers_like_a_cold_system(
    kb, segment_dir, segmented_system, tmp_path
):
    """The served engine, externally rebound to an executor over other
    segments, has every plan declined (the foreign-graph check), so a
    snapshot restore is accepted and its warm answers never mix with the
    other segments."""
    cold = QuestionAnsweringSystem.over(load_kb(segment_dir))
    controls = [question.text for question in load_dev_questions()]
    server = ResilientServer(segmented_system, ServerConfig(workers=2))
    try:
        for text in controls:
            server.answer(text)
        path = tmp_path / "warm.snapshot"
        server.save_snapshot(path)

        # Install on the served engine an executor over different
        # segments (fewer shards -> different fingerprint).
        drifted_dir = tmp_path / "drifted"
        build_segments(kb.graph, drifted_dir, shards=2)
        drifted = SegmentedBackend(drifted_dir).open()
        try:
            with ScatterGatherExecutor(drifted) as executor:
                segmented_system.kb.engine.install_scatter(executor)
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
