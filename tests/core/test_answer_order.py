"""Answer lists are identical across backends, order included.

An unordered candidate query returns rows in scan order, and scan order
differs between the in-memory graph and segment shards.  The QA system
sorts the winning candidate's answers by their N3 form, so the same
question gets the same ``answers`` list (and the same ``Answer.top``)
from the in-memory KB and from segments at any shard count.
"""

import random

import pytest

from repro.api import QuestionAnsweringSystem
from repro.kb import (
    KnowledgeBase,
    SegmentedBackend,
    build_dbpedia_ontology,
    build_segments,
    generate_records,
    load_synthetic_kb,
)

SEED = 13  # load_synthetic_kb's default


def templated_questions(per_template: int = 8) -> list[str]:
    """Questions of the synthetic KB's templates, most with several
    answers (books of a writer, writers of a city, cities of a country)."""
    records = generate_records(
        num_writers=100, books_per_writer=3, num_cities=50,
        num_countries=10, num_companies=20, seed=SEED,
    )
    templates = {
        "Writer": ("Which books were written by {}?", "Where was {} born?"),
        "City": ("Which writers were born in {}?", "In which country is {}?"),
        "Country": (
            "Which cities are located in {}?", "What is the capital of {}?"
        ),
    }
    by_template: dict[str, list[str]] = {}
    for record in records:
        for kind, patterns in templates.items():
            if kind in record.classes:
                for pattern in patterns:
                    by_template.setdefault(pattern, []).append(
                        pattern.format(record.display_label())
                    )
    rng = random.Random(SEED)
    return [
        text
        for group in by_template.values()
        for text in rng.sample(group, min(per_template, len(group)))
    ]


@pytest.fixture(scope="module")
def in_memory_answers():
    system = QuestionAnsweringSystem.over(load_synthetic_kb(1, seed=SEED))
    return {text: system.answer(text).answers for text in templated_questions()}


@pytest.mark.parametrize("shards", [1, 4, 8])
def test_answer_lists_match_in_memory(in_memory_answers, shards, tmp_path):
    build_segments(load_synthetic_kb(1, seed=SEED).graph, tmp_path, shards=shards)
    with SegmentedBackend(tmp_path) as backend:
        kb = KnowledgeBase.from_backend(build_dbpedia_ontology(), backend)
        system = QuestionAnsweringSystem.over(kb)
        several = 0
        for text, expected in in_memory_answers.items():
            answers = system.answer(text).answers
            assert answers == expected, text
            several += len(answers) > 1
    # The comparison is about order: most questions have several answers.
    assert several >= len(in_memory_answers) // 3


def test_answers_are_sorted_by_n3(in_memory_answers):
    for answers in in_memory_answers.values():
        assert answers == sorted(answers, key=lambda term: term.n3())
