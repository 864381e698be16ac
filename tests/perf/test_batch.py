"""Batch answering: answer_many() must equal sequential answer() exactly,
and equal the seed's cold term-space path on the dev set."""

from repro.core import PipelineConfig, QuestionAnsweringSystem
from repro.kb import load_curated_kb
from repro.qald.devset import load_dev_questions

QUESTIONS = [
    "Which book is written by Orhan Pamuk?",
    "How tall is Michael Jordan?",
    "Where did Abraham Lincoln die?",
    "Who is the mayor of Berlin?",
    "How many pages does War and Peace have?",
    "Which river does the Brooklyn Bridge cross?",
    "Is Frank Herbert still alive?",  # unanswerable: failure paths too
]


def signature(answer):
    """Every observable field of an Answer, for byte-level comparison."""
    return (
        answer.question,
        tuple(term.n3() for term in answer.answers),
        answer.query.to_sparql() if answer.query is not None else None,
        answer.query.score if answer.query is not None else None,
        tuple(str(t) for t in answer.triples),
        tuple(q.to_sparql() for q in answer.candidate_queries),
        answer.expected_type.value,
        answer.failure,
        answer.boolean,
        answer.rewritten_question,
    )


class TestAnswerMany:
    def test_matches_sequential_answers(self, qa):
        sequential = [signature(qa.answer(q)) for q in QUESTIONS]
        batch = [signature(a) for a in qa.answer_many(QUESTIONS)]
        assert batch == sequential

    def test_matches_sequential_on_dev_set(self, qa):
        questions = [q.text for q in load_dev_questions()]
        sequential = [signature(qa.answer(q)) for q in questions]
        batch = [signature(a) for a in qa.answer_many(questions)]
        assert batch == sequential

    def test_preserves_input_order(self, qa):
        answers = qa.answer_many(QUESTIONS)
        assert [a.question for a in answers] == QUESTIONS

    def test_empty_batch(self, qa):
        assert qa.answer_many([]) == []

    def test_accepts_generators(self, qa):
        answers = qa.answer_many(q for q in QUESTIONS[:2])
        assert len(answers) == 2

    def test_batch_counter_recorded(self, qa):
        before = qa.stats.counter("batch.questions")
        qa.answer_many(QUESTIONS[:3])
        assert qa.stats.counter("batch.questions") == before + 3

    def test_escaping_exception_fails_only_its_question(self, qa, monkeypatch):
        """Per-question isolation: an exception escaping ``answer()``
        becomes a typed internal failure for that question alone."""
        poisoned = QUESTIONS[1]
        answer = qa.answer

        def failing(question, *args, **kwargs):
            if question == poisoned:
                raise RuntimeError("boom")
            return answer(question, *args, **kwargs)

        monkeypatch.setattr(qa, "answer", failing)
        before = qa.stats.counter("batch.failures")
        answers = qa.answer_many(QUESTIONS[:3])
        assert [a.question for a in answers] == QUESTIONS[:3]
        assert answers[1].failure_stage == "internal"
        assert "RuntimeError: boom" in answers[1].failure
        assert answers[0].answered and answers[2].answered
        assert qa.stats.counter("batch.failures") == before + 1

    def test_repeated_batches_stay_identical(self, qa):
        """Cache warmth must change speed only, never answers."""
        first = [signature(a) for a in qa.answer_many(QUESTIONS)]
        second = [signature(a) for a in qa.answer_many(QUESTIONS)]
        assert first == second


class TestCachedConfigEquivalence:
    def test_cold_config_matches_cached_config(self, kb):
        """The perf layer is behaviour-neutral: a system with every cache
        and pruning switch off answers identically to the default."""
        cold = QuestionAnsweringSystem.over(
            kb, PipelineConfig().without_perf_caches()
        )
        warm = QuestionAnsweringSystem.over(kb, PipelineConfig())
        for question in QUESTIONS:
            assert signature(cold.answer(question)) == signature(
                warm.answer(question)
            ), question


class TestTermSpaceBaseline:
    def test_cold_term_space_path_matches_answer_many_on_dev_set(self):
        """The seed's cold path — term-space query evaluation, query cache
        off, every perf cache and pruning switch off, one question at a
        time — answers the dev set exactly as the default system's
        ``answer_many`` does."""
        questions = [q.text for q in load_dev_questions()]
        cold_kb = load_curated_kb()
        cold_kb.engine.cache_enabled = False
        cold_kb.engine.idspace = False
        cold = QuestionAnsweringSystem.over(
            cold_kb, PipelineConfig().without_perf_caches()
        )
        expected = [signature(cold.answer(question)) for question in questions]
        warm = QuestionAnsweringSystem.over(load_curated_kb(), PipelineConfig())
        batch = warm.answer_many(questions)
        assert [signature(answer) for answer in batch] == expected
