"""Tests for Answer.explanation() — the structured pipeline report."""

from repro.core import Explanation, PipelineConfig, QuestionAnsweringSystem


class TestExplanationReport:
    """str(answer.explanation()) reproduces the established report text."""

    def test_answered_question_report(self, qa):
        report = str(qa.answer("Which book is written by Orhan Pamuk?").explanation())
        assert "question: Which book is written by Orhan Pamuk?" in report
        assert "[Subject: ?x] [Predicate: rdf:type] [Object: book]" in report
        assert "candidate queries (section 2.3):" in report
        assert "winning query:" in report
        assert "answers: 5" in report

    def test_expected_type_line_for_who(self, qa):
        report = str(qa.answer("Who is the mayor of Berlin?").explanation())
        assert "expected answer type (Table 1): person-or-organisation" in report

    def test_no_type_line_for_which(self, qa):
        report = str(qa.answer("Which book is written by Orhan Pamuk?").explanation())
        assert "expected answer type" not in report

    def test_unanswered_report_carries_failure(self, qa):
        report = str(qa.answer("Is Frank Herbert still alive?").explanation())
        assert "unanswered:" in report
        assert "mapping failed" in report

    def test_no_patterns_report(self, qa):
        report = str(qa.answer("What is the highest mountain?").explanation())
        assert "none extracted" in report

    def test_boolean_report(self, kb):
        system = QuestionAnsweringSystem.over(
            kb, PipelineConfig(enable_boolean_questions=True)
        )
        report = str(system.answer("Is Berlin the capital of Germany?").explanation())
        assert "verdict: yes (ASK extension)" in report

    def test_rewrite_report(self, kb):
        system = QuestionAnsweringSystem.over(
            kb, PipelineConfig(enable_imperatives=True)
        )
        report = str(
            system.answer("Give me all films directed by Alfred Hitchcock.").explanation()
        )
        assert "rewritten (imperative extension):" in report
        assert "Which films were directed by Alfred Hitchcock?" in report


class TestExplanationStructure:
    """The structured fields behind the text."""

    def test_fields_mirror_answer(self, qa):
        answer = qa.answer("Which book is written by Orhan Pamuk?")
        explanation = answer.explanation()
        assert isinstance(explanation, Explanation)
        assert explanation.question == answer.question
        assert explanation.answered is True
        assert explanation.answers_count == len(answer.answers)
        assert explanation.winning_query is answer.query
        assert explanation.failure is None

    def test_candidate_table_marks_winner(self, qa):
        answer = qa.answer("Who wrote The Pillars of the Earth?")
        explanation = answer.explanation()
        statuses = {record.status for record in explanation.candidates}
        winners = [r for r in explanation.candidates if r.status == "winner"]
        assert len(winners) == 1
        assert winners[0].sparql == answer.query.to_sparql()
        assert statuses <= {
            "winner", "no-bindings", "type-filtered", "not-executed",
        }
        table = explanation.render_candidates()
        assert "candidate ranking (section 2.3.1)" in table
        assert "winner" in table

    def test_candidates_ranked_by_index(self, qa):
        explanation = qa.answer("Who wrote The Pillars of the Earth?").explanation()
        indices = [record.index for record in explanation.candidates]
        assert indices == sorted(indices)
        scores = [record.score for record in explanation.candidates]
        assert scores == sorted(scores, reverse=True)

    def test_short_circuited_candidates_not_executed(self, qa):
        explanation = qa.answer("Who wrote The Pillars of the Earth?").explanation()
        winner_index = next(
            r.index for r in explanation.candidates if r.status == "winner"
        )
        for record in explanation.candidates:
            if record.index > winner_index:
                assert record.status == "not-executed"

    def test_to_dict_round_trips_core_fields(self, qa):
        explanation = qa.answer("Which book is written by Orhan Pamuk?").explanation()
        data = explanation.to_dict()
        assert data["question"] == explanation.question
        assert data["answered"] is True
        assert len(data["candidates"]) == len(explanation.candidates)

    def test_render_tree_without_trace(self, qa):
        # Untraced system: render_tree still works, just without spans.
        text = qa.answer("Which book is written by Orhan Pamuk?").explanation().render_tree()
        assert "question:" in text
        assert "candidate ranking" in text
        assert "trace:" not in text
