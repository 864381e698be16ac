"""Quick soak smoke: the chaos harness's own invariants, in miniature.

The CI ``soak-smoke`` job runs the real thing (``repro soak --duration 60
--quick``); this test keeps the harness importable, runnable and honest
inside the ordinary suite with a few seconds of load.
"""

import pytest

import json

from repro.cli import main
from repro.serve.soak import SoakReport, answer_signature, run_soak


@pytest.mark.slow
def test_quick_soak_holds_every_invariant(kb, tmp_path):
    report = run_soak(
        kb,
        duration_s=3.0,
        seed=11,
        quick=True,
        snapshot_path=str(tmp_path / "warm.snapshot"),
    )
    assert report.violations == []
    assert report.ok
    assert report.submitted > 0
    assert report.resolved == report.submitted
    assert report.post_soak_identical
    # Chaos actually happened.
    assert sum(report.chaos_events.values()) > 0
    # The metrics document rode along and stays schema-stable.
    assert report.metrics["schema"] == "repro.metrics/v1"


def test_answer_signature_is_byte_stable(qa):
    text = "Which book is written by Orhan Pamuk?"
    assert answer_signature(qa.answer(text)) == answer_signature(qa.answer(text))


def test_summary_states_scatter_traffic():
    report = SoakReport(
        duration_s=1.0, scatter_queries=2, scatter_local_queries=5
    )
    assert (
        "scatter queries: 2 fanned out, 5 run single-process below the "
        "fan-out gate" in report.summary()
    )


@pytest.mark.slow
def test_segmented_soak_json_reports_scatter_traffic(tmp_path, capfd):
    path = tmp_path / "soak.json"
    code = main(
        ["soak", "--duration", "1", "--quick", "--segmented",
         "--json", str(path)]
    )
    assert code == 0
    document = json.loads(path.read_text())
    assert document["shared_segments"] is True
    for key in ("scatter_queries", "scatter_local_queries"):
        assert isinstance(document[key], int) and document[key] >= 0
    assert "scatter queries:" in capfd.readouterr().out
