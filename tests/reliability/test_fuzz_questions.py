"""Property-based fuzzing: ``answer()`` never raises, whatever the input.

Two generators feed the same invariant:

* a deterministic combinatorial corpus (prefix x payload x suffix) of a
  few hundred adversarial strings — empty, whitespace, huge, unicode,
  punctuation-only, unbalanced quotes;
* Hypothesis-generated arbitrary text (bounded by default; the heavier
  run is marked ``slow``).

The invariant: the call returns an :class:`~repro.core.system.Answer` for
exactly the question asked, with ``failure`` set whenever it is
unanswered, and the system's metrics stay consistent (counters
non-negative, and the annotate timer advances once per call).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.system import Answer

_PREFIXES = ["", " ", "\t\n", "Which ", "WHO ", "how many ", '"', "((", "'s "]
_PAYLOADS = [
    "",
    "book is written by Orhan Pamuk",
    "?????",
    "книга написана Орханом",
    "éüß 书 \U0001f600",
    ". . . .",
    "is is is is",
    "x" * 500,
    "unbalanced 'quote",
    'mixed "quotes\' here',
    "Who wrote " + "very " * 40 + "long books",
]
_SUFFIXES = ["", "?", "???", " ", "\r\n", "!?!"]

CORPUS = [p + m + s for p in _PREFIXES for m in _PAYLOADS for s in _SUFFIXES]


def _assert_answer_invariant(result, question):
    assert isinstance(result, Answer)
    assert result.question == question
    if not result.answered:
        assert result.failure is not None
    else:
        assert result.failure is None
    # The explanation must render for any outcome (the CLI calls it blindly).
    assert isinstance(str(result.explanation()), str)


class TestAdversarialCorpus:
    def test_corpus_is_hundreds_strong(self):
        assert len(CORPUS) >= 300

    @pytest.mark.parametrize("question", CORPUS[:: len(CORPUS) // 120 or 1])
    def test_never_raises_sampled(self, session_qa, question):
        _assert_answer_invariant(session_qa.answer(question), question)

    @pytest.mark.slow
    def test_never_raises_full_corpus(self, session_qa):
        for question in CORPUS:
            _assert_answer_invariant(session_qa.answer(question), question)

    def test_stats_stay_consistent(self, session_qa):
        questions = CORPUS[:50]
        before = session_qa.stats.snapshot()
        for question in questions:
            session_qa.answer(question)
        after = session_qa.stats.snapshot()

        for name, value in after["counters"].items():
            assert value >= 0, name
            assert value >= before["counters"].get(name, 0), name
        annotate_before = before["histograms"].get(
            "stage.annotate.seconds", {}
        ).get("count", 0)
        annotate_after = after["histograms"]["stage.annotate.seconds"]["count"]
        # Every non-empty-fault question annotates exactly once per call.
        assert annotate_after == annotate_before + len(questions)
        # The never-raise last resort must not have been needed.
        assert after["counters"].get("reliability.unexpected_errors", 0) == \
            before["counters"].get("reliability.unexpected_errors", 0)


class TestHypothesisFuzz:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(question=st.text(max_size=200))
    def test_arbitrary_text_never_raises(self, session_qa, question):
        _assert_answer_invariant(session_qa.answer(question), question)

    @pytest.mark.slow
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(question=st.text(max_size=2000))
    def test_arbitrary_text_never_raises_deep(self, session_qa, question):
        _assert_answer_invariant(session_qa.answer(question), question)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        questions=st.lists(st.text(max_size=80), min_size=1, max_size=6),
        workers=st.integers(min_value=1, max_value=4),
    )
    def test_batches_of_garbage_complete(self, session_qa, questions, workers):
        answers = session_qa.answer_many(questions, max_workers=workers)
        assert [a.question for a in answers] == questions
        for question, result in zip(questions, answers):
            _assert_answer_invariant(result, question)
