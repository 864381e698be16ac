"""Entity chunking against the unpruned longest-match reference loop.

``Pipeline._longest_mention`` returns early when its start token begins no
registered surface form; these tests pin that the merged token lists are
exactly those of the loop that tries every span.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.nlp import Pipeline
from repro.nlp.pipeline import _STOP_MENTIONS
from repro.nlp.tokenizer import tokenize
from repro.qald.dataset import load_questions
from repro.qald.devset import load_dev_questions


def reference_merge(gazetteer, raw_tokens):
    """``_merge_entities`` trying every span at every start position."""
    merged, spans = [], []
    index = 0
    while index < len(raw_tokens):
        match = None
        for width in range(min(gazetteer.max_words, len(raw_tokens) - index), 0, -1):
            span = raw_tokens[index:index + width]
            if any(not token or not token[0].isalnum() for token in span):
                continue
            if not any(token[0].isupper() for token in span):
                continue
            if width == 1 and span[0].lower() in _STOP_MENTIONS:
                continue
            candidates = gazetteer.candidates(" ".join(span))
            if candidates:
                match = (index + width, candidates)
                break
        if match is not None:
            end, candidates = match
            merged.append((" ".join(raw_tokens[index:end]), candidates))
            spans.append((index, end))
            index = end
        else:
            merged.append((raw_tokens[index], None))
            index += 1
    return merged, spans


@pytest.fixture(scope="module")
def pipeline(kb):
    return Pipeline(kb.surface_index)


QUESTIONS = [q.text for q in load_questions() + load_dev_questions()]


@pytest.mark.parametrize("text", QUESTIONS)
def test_qald_questions_match_reference(kb, pipeline, text):
    tokens = tokenize(text)
    assert pipeline._merge_entities(tokens) == reference_merge(kb.surface_index, tokens)


@pytest.fixture(scope="module")
def label_words(kb):
    """Every word of every primary label, as the tokenizer splits it."""
    return sorted({
        word
        for entity in kb.entities()
        for word in tokenize(kb.surface_index.label(entity) or "")
    })


@given(data=st.data())
def test_token_lists_match_reference(kb, pipeline, label_words, data):
    word = st.sampled_from(label_words)
    token = st.one_of(
        word,
        word.map(str.lower),
        word.map(str.upper),
        st.sampled_from(["Who", "the", "of", "?", ",", "-", "'s", "", "D.C."]),
        st.text(alphabet="aZé-.,_ ", max_size=4),
    )
    tokens = data.draw(st.lists(token, max_size=12))
    assert pipeline._merge_entities(tokens) == reference_merge(kb.surface_index, tokens)
