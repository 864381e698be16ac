"""Inputs and expected outputs of the three workloads.

Gold answers never come from the engine under test:

* templated questions take theirs straight from the
  :func:`repro.kb.generate_records` records the synthetic KB is built from;
* QALD questions take theirs from the gold SPARQL, run on a KB instance of
  their own before any timing starts;
* the twelve SPARQL queries take theirs from the prep step's oracle
  (:mod:`prep`), which the term-space engine confirms once per cache.

List answers are compared as sets: the order of ``Answer.answers`` depends
on the backend (memory and segments order some lists differently).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Generator seed of the synthetic KB (``load_synthetic_kb``'s default).
#: It fixes the KB and the templated questions asked of it; the run's
#: ``--seed`` only orders them.
KB_SEED = 13

#: In-scope QALD outcome the reproduction is pinned to (EXPERIMENTS.md).
QALD_ANSWERED, QALD_CORRECT = 18, 15


@dataclass(frozen=True)
class Question:
    """One templated question and the local names it must return.

    An empty ``gold`` means the question must stay unanswered.
    """

    template: str
    text: str
    gold: frozenset


def synth_records(scale: int):
    """The records ``load_synthetic_kb(scale)`` materialises."""
    from repro.kb import generate_records

    return generate_records(
        num_writers=100 * scale,
        books_per_writer=3,
        num_cities=50 * scale,
        num_countries=max(10, 2 * scale),
        num_companies=20 * scale,
        seed=KB_SEED,
    )


def templated_questions(scale: int) -> list[Question]:
    """Every distinct templated question on the scale-``scale`` KB.

    Eight templates; the last ("When was X born?") asks for a date the
    pipeline cannot type-check, so its gold is empty.
    """
    records = synth_records(scale)
    books_by: dict[str, set] = {}
    writers_born_in: dict[str, set] = {}
    cities_in: dict[str, set] = {}
    for record in records:
        facts = record.facts
        if "author" in facts:
            books_by.setdefault(facts["author"], set()).add(record.name)
        if "birthPlace" in facts:
            writers_born_in.setdefault(facts["birthPlace"], set()).add(record.name)
        if "City" in record.classes:
            cities_in.setdefault(facts["country"], set()).add(record.name)

    questions: list[Question] = []

    def add(template: str, text: str, gold) -> None:
        questions.append(Question(template, text, frozenset(gold)))

    for record in records:
        label, facts, name = record.display_label(), record.facts, record.name
        if "Writer" in record.classes:
            add("born-in", f"Where was {label} born?", {facts["birthPlace"]})
            add("books-by", f"Which books were written by {label}?",
                books_by.get(name, ()))
            add("born-when", f"When was {label} born?", ())
        elif "City" in record.classes:
            add("country-of-city", f"In which country is {label}?",
                {facts["country"]})
            add("writers-born-in", f"Which writers were born in {label}?",
                writers_born_in.get(name, ()))
        elif "Country" in record.classes:
            add("capital-of", f"What is the capital of {label}?",
                {facts["capital"]})
            add("cities-in-country", f"Which cities are located in {label}?",
                cities_in.get(name, ()))
        elif "Company" in record.classes:
            add("hq-of", f"Where is the headquarter of {label}?",
                {facts["headquarter"]})
    return questions


def templated_sample(scale: int, per_template: int) -> list[Question]:
    """``per_template`` questions of each template, the same for every
    run seed (which only orders them): a median over a sample that
    changed with the seed would move with the sample."""
    rng = random.Random(KB_SEED)
    by_template: dict[str, list] = {}
    for question in templated_questions(scale):
        by_template.setdefault(question.template, []).append(question)
    return [
        question
        for group in by_template.values()
        for question in rng.sample(group, per_template)
    ]


def answer_names(answer) -> frozenset:
    """The local names of an Answer's terms, as a set."""
    return frozenset(term.local_name for term in answer.answers)


# ---------------------------------------------------------------------------
# QALD
# ---------------------------------------------------------------------------


def qald_questions():
    """The 100 QALD questions plus the 20 dev questions."""
    from repro.qald import load_dev_questions, load_questions

    return load_questions() + load_dev_questions()


def qald_gold() -> dict:
    """qid -> gold answer set (or bool) for the 55 in-scope test questions,
    computed on a KB instance no timed system ever touches."""
    from repro.kb import load_curated_kb
    from repro.qald import QaldEvaluator, in_scope_questions

    evaluator = QaldEvaluator(load_curated_kb(), system=None)
    return {
        question.qid: evaluator.gold_answers(question)
        for question in in_scope_questions()
    }


def qald_outcome(gold, answer) -> tuple[bool, bool]:
    """(answered, correct) exactly as ``QaldEvaluator`` scores them."""
    if isinstance(gold, bool):
        correct = answer.boolean is not None and answer.boolean == gold
    else:
        predicted = frozenset(answer.answers)
        correct = bool(predicted) and predicted == gold
    return answer.answered, correct


# ---------------------------------------------------------------------------
# SPARQL
# ---------------------------------------------------------------------------

#: The join-heavy query set: seven mixed star/path/aggregate queries plus
#: five selective two-star conjunctions (the semi-join shipping class).
#: Every SELECT is fully ordered, so answers compare row for row.
QUERIES = (
    ("star_writer_place",
     "SELECT ?w ?c WHERE { ?w a dbo:Writer . ?w dbo:birthPlace ?c . "
     "?w dbo:height ?h } ORDER BY ?w ?c"),
    ("star_book_pages",
     "SELECT ?b ?n WHERE { ?b a dbo:Novel . ?b dbo:numberOfPages ?n . "
     "?b dbo:author ?a } ORDER BY ?n ?b LIMIT 500"),
    ("star_city_filter",
     "SELECT ?c ?p WHERE { ?c a dbo:City . ?c dbo:populationTotal ?p . "
     "FILTER(?p > 1000000) } ORDER BY ?p ?c"),
    ("path_book_country",
     "SELECT ?b ?co WHERE { ?b dbo:author ?w . ?w dbo:birthPlace ?c . "
     "?c dbo:country ?co } ORDER BY ?b ?co LIMIT 500"),
    ("path_writer_capital",
     "SELECT ?w ?cap WHERE { ?w dbo:birthPlace ?c . ?c dbo:country ?co . "
     "?co dbo:capital ?cap } ORDER BY ?w ?cap LIMIT 500"),
    ("count_writers",
     "SELECT (COUNT(?w) AS ?n) WHERE { ?w a dbo:Writer . "
     "?w dbo:birthPlace ?c }"),
    ("ask_tall_writer",
     "ASK { ?w a dbo:Writer . ?w dbo:height ?h . FILTER(?h > 2.0) }"),
    ("join_tall_writer_big_city",
     "SELECT ?w ?c WHERE { ?w a dbo:Writer . ?w dbo:height ?h . "
     "?w dbo:birthPlace ?c . FILTER(?h > 2.05) . ?c a dbo:City . "
     "?c dbo:populationTotal ?p . FILTER(?p > 5000000) } ORDER BY ?w ?c"),
    ("join_long_novel_tall_author",
     "SELECT ?b ?w WHERE { ?b a dbo:Novel . ?b dbo:numberOfPages ?n . "
     "?b dbo:author ?w . FILTER(?n > 900) . ?w a dbo:Writer . "
     "?w dbo:height ?h . FILTER(?h > 1.95) } ORDER BY ?b ?w"),
    ("join_short_writer_small_city",
     "SELECT ?w ?p WHERE { ?w a dbo:Writer . ?w dbo:height ?h . "
     "?w dbo:birthPlace ?c . FILTER(?h < 1.55) . ?c a dbo:City . "
     "?c dbo:populationTotal ?p . FILTER(?p < 200000) } ORDER BY ?w ?p"),
    ("join_heavy_book_city",
     "SELECT ?b ?c WHERE { ?b a dbo:Novel . ?b dbo:numberOfPages ?n . "
     "?b dbo:author ?w . FILTER(?n > 850) . ?w dbo:birthPlace ?c . "
     "?w dbo:height ?h . FILTER(?h > 1.9) } ORDER BY ?b ?c LIMIT 500"),
    ("join_ask_giant_pair",
     "ASK { ?w a dbo:Writer . ?w dbo:height ?h . FILTER(?h > 2.09) . "
     "?w dbo:birthPlace ?c . ?c dbo:populationTotal ?p . "
     "FILTER(?p > 8000000) }"),
)


def canonical(result) -> list:
    """JSON-stable form of a query result: n3 rows, or ``[bool]``."""
    if hasattr(result, "rows"):
        return [
            [None if term is None else term.n3() for term in row]
            for row in result.rows
        ]
    return [bool(result.value)]
