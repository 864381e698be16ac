"""Quick soak smoke: the chaos harness's own invariants, in miniature.

The CI ``soak-smoke`` job runs the real thing (``repro soak --duration 60
--quick``); this test keeps the harness importable, runnable and honest
inside the ordinary suite with a few seconds of load.
"""

import pytest

import json

from repro.api import PipelineConfig, QuestionAnsweringSystem
from repro.cli import main
from repro.reliability.faults import FaultInjector, FaultSpec
from repro.serve.soak import (
    SoakReport,
    answer_signature,
    check_state_bleed,
    run_soak,
)


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
    # An in-heap KB: no segment directory to share.
    assert report.shared_segments is False


def test_answer_signature_is_byte_stable(qa):
    text = "Which book is written by Orhan Pamuk?"
    assert answer_signature(qa.answer(text)) == answer_signature(qa.answer(text))


def test_summary_states_shared_segments():
    report = SoakReport(duration_s=1.0, shared_segments=True, peak_rss_mb=61.5)
    assert (
        "shared segments: True, replica peak RSS 61.5 MiB" in report.summary()
    )


@pytest.mark.slow
def test_segmented_soak_json_reports_scatter_traffic(tmp_path, capfd):
    """A segmented soak reports its shared segments and no scatter
    traffic: the server installs no scatter executor, so neither the JSON
    nor the summary carries scatter counts."""
    path = tmp_path / "soak.json"
    code = main(
        ["soak", "--duration", "1", "--quick", "--segmented",
         "--json", str(path)]
    )
    assert code == 0
    document = json.loads(path.read_text())
    assert document["ok"] is True
    assert document["shared_segments"] is True
    assert not [key for key in document if key.startswith("scatter")]
    out = capfd.readouterr().out
    assert "shared segments: True" in out
    assert "scatter" not in out


class TestStateBleedCheck:
    """Invariant 3 compares only control answers that ran clean."""

    TEXT = "Where did Freddie Mercury die?"

    def test_faulted_candidate_is_skipped_not_flagged(self, kb):
        faults = FaultInjector()
        system = QuestionAnsweringSystem.over(
            kb, PipelineConfig().with_fault_injector(faults)
        )
        clean = {self.TEXT: answer_signature(system.answer(self.TEXT))}
        faults.arm(FaultSpec("execute", "error", times=1))
        answer = system.answer(self.TEXT)
        # The executor skipped the faulted winner and answered from the
        # next candidate, with no failure: a different answer.
        assert answer.answered and answer.failure is None
        assert [t.n3() for t in answer.answers] == [
            "<http://dbpedia.org/resource/Stone_Town>"
        ]
        assert answer_signature(answer) != clean[self.TEXT]
        report = SoakReport(duration_s=0.0)
        check_state_bleed(report, clean, self.TEXT, answer)
        assert report.violations == []
        assert report.faulted_controls == 1

    def test_clean_answer_that_differs_is_flagged(self, qa):
        answer = qa.answer(self.TEXT)
        assert all(
            status not in ("error", "fault-injected")
            for __, status, __detail in answer.candidate_outcomes
        )
        signature = answer_signature(answer)
        clean = {self.TEXT: signature[:1] + (("<elsewhere>",),) + signature[2:]}
        report = SoakReport(duration_s=0.0)
        check_state_bleed(report, clean, self.TEXT, answer)
        assert report.faulted_controls == 0
        assert len(report.violations) == 1
        assert "cross-request state bleed" in report.violations[0]
