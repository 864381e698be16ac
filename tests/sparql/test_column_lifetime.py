"""No column outlives its scan.

A segmented scan's columns are zero-copy views into a shard's mapping,
and a live view makes ``mmap.close()`` raise ``BufferError``.  The scatter
executor's shard result caches keep every shard batch after the query
returns, so a batch column that is still a view would stop the backend
from closing.  Every operator copies what it keeps into an
``array('q')``.
"""

import pytest

from repro.kb import SegmentedBackend, build_segments, load_synthetic_kb
from repro.sparql import ScatterGatherExecutor, SparqlEngine
from repro.sparql import columnar

#: The join-heavy query set of the ``sparql-joins`` workload: star, path,
#: aggregate and ASK queries, then five selective two-star conjunctions.
QUERIES = (
    "SELECT ?w ?c WHERE { ?w a dbo:Writer . ?w dbo:birthPlace ?c . "
    "?w dbo:height ?h } ORDER BY ?w ?c",
    "SELECT ?b ?n WHERE { ?b a dbo:Novel . ?b dbo:numberOfPages ?n . "
    "?b dbo:author ?a } ORDER BY ?n ?b LIMIT 500",
    "SELECT ?c ?p WHERE { ?c a dbo:City . ?c dbo:populationTotal ?p . "
    "FILTER(?p > 1000000) } ORDER BY ?p ?c",
    "SELECT ?b ?co WHERE { ?b dbo:author ?w . ?w dbo:birthPlace ?c . "
    "?c dbo:country ?co } ORDER BY ?b ?co LIMIT 500",
    "SELECT ?w ?cap WHERE { ?w dbo:birthPlace ?c . ?c dbo:country ?co . "
    "?co dbo:capital ?cap } ORDER BY ?w ?cap LIMIT 500",
    "SELECT (COUNT(?w) AS ?n) WHERE { ?w a dbo:Writer . "
    "?w dbo:birthPlace ?c }",
    "ASK { ?w a dbo:Writer . ?w dbo:height ?h . FILTER(?h > 2.0) }",
    "SELECT ?w ?c WHERE { ?w a dbo:Writer . ?w dbo:height ?h . "
    "?w dbo:birthPlace ?c . FILTER(?h > 2.05) . ?c a dbo:City . "
    "?c dbo:populationTotal ?p . FILTER(?p > 5000000) } ORDER BY ?w ?c",
    "SELECT ?b ?w WHERE { ?b a dbo:Novel . ?b dbo:numberOfPages ?n . "
    "?b dbo:author ?w . FILTER(?n > 900) . ?w a dbo:Writer . "
    "?w dbo:height ?h . FILTER(?h > 1.95) } ORDER BY ?b ?w",
    "SELECT ?w ?p WHERE { ?w a dbo:Writer . ?w dbo:height ?h . "
    "?w dbo:birthPlace ?c . FILTER(?h < 1.55) . ?c a dbo:City . "
    "?c dbo:populationTotal ?p . FILTER(?p < 200000) } ORDER BY ?w ?p",
    "SELECT ?b ?c WHERE { ?b a dbo:Novel . ?b dbo:numberOfPages ?n . "
    "?b dbo:author ?w . FILTER(?n > 850) . ?w dbo:birthPlace ?c . "
    "?w dbo:height ?h . FILTER(?h > 1.9) } ORDER BY ?b ?c LIMIT 500",
    "ASK { ?w a dbo:Writer . ?w dbo:height ?h . FILTER(?h > 2.09) . "
    "?w dbo:birthPlace ?c . ?c dbo:populationTotal ?p . "
    "FILTER(?p > 8000000) }",
)

#: A one-pattern star: each shard caches its leaf batch as the scan built
#: it, with no join or filter after the scan to copy its columns again.
LEAF_QUERY = "SELECT ?w ?h WHERE { ?w dbo:height ?h }"


@pytest.fixture(scope="module")
def scale2_segments(tmp_path_factory):
    directory = tmp_path_factory.mktemp("scale2")
    build_segments(load_synthetic_kb(2).graph, directory, shards=8)
    return directory


@pytest.mark.parametrize("vectorized", [True, False])
def test_backend_closes_with_full_shard_caches(
    scale2_segments, vectorized, monkeypatch
):
    if not vectorized:
        monkeypatch.setattr(columnar, "_np", None)
    elif columnar._np is None:  # pragma: no cover - numpy always in image
        pytest.skip("numpy unavailable")
    backend = SegmentedBackend(scale2_segments).open()
    engine = SparqlEngine(backend.graph_view())
    executor = ScatterGatherExecutor(backend)
    engine.install_scatter(executor)
    for text in QUERIES + (LEAF_QUERY,):
        engine.query(text)
    counters = engine.stats.snapshot()["counters"]
    assert counters["kb.shard_cache.misses"] > 0
    assert sum(len(cache) for cache in executor._caches.values()) > 0
    # The executor stays open: its caches still hold every shard batch.
    backend.close()
