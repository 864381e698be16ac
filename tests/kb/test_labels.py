"""Tests for surface-form normalisation, the index and spotting."""

from hypothesis import given
from hypothesis import strategies as st

from repro.kb.labels import SurfaceFormIndex, normalize_surface
from repro.rdf import DBR


def reference_spot(index, tokens):
    """Spotting as one normalisation and one lookup per candidate window:
    the reference that ``SurfaceFormIndex.spot`` must match exactly."""
    tokens = list(tokens)
    position = 0
    while position < len(tokens):
        longest = min(index.max_words, len(tokens) - position)
        for width in range(longest, 0, -1):
            candidates = index.candidates(" ".join(tokens[position:position + width]))
            if candidates:
                yield (position, position + width, candidates)
                position += width
                break
        else:
            position += 1


class TestNormalize:
    def test_case_folding(self):
        assert normalize_surface("Orhan PAMUK") == "orhan pamuk"

    def test_punctuation_stripped(self):
        assert normalize_surface("Washington, D.C.") == "washington d c"

    def test_underscores_become_spaces(self):
        assert normalize_surface("Orhan_Pamuk") == "orhan pamuk"

    def test_whitespace_collapsed(self):
        assert normalize_surface("  New   York  ") == "new york"

    def test_empty(self):
        assert normalize_surface("...") == ""

    @given(st.text(max_size=30))
    def test_idempotent(self, text):
        once = normalize_surface(text)
        assert normalize_surface(once) == once

    @given(st.lists(st.text(max_size=8), max_size=6))
    def test_join_of_normalised_tokens(self, tokens):
        # The identity per-token spotting rests on.
        parts = [normalize_surface(token) for token in tokens]
        assert normalize_surface(" ".join(tokens)) == " ".join(p for p in parts if p)


class TestIndex:
    def build(self):
        index = SurfaceFormIndex()
        index.add(DBR.Michael_Jordan, "Michael Jordan", primary=True)
        index.add(DBR.Michael_I_Jordan, "Michael I. Jordan", primary=True)
        index.add(DBR.Michael_I_Jordan, "Michael Jordan")
        index.add(DBR.Berlin, "Berlin", primary=True)
        index.add(DBR.New_York_City, "New York City", primary=True)
        index.add(DBR.New_York_City, "New York")
        return index

    def test_exact_lookup(self):
        index = self.build()
        assert index.candidates("Berlin") == [DBR.Berlin]

    def test_ambiguous_surface(self):
        index = self.build()
        candidates = index.candidates("Michael Jordan")
        assert set(candidates) == {DBR.Michael_Jordan, DBR.Michael_I_Jordan}

    def test_normalised_lookup(self):
        index = self.build()
        assert index.candidates("  BERLIN ") == [DBR.Berlin]

    def test_unknown_surface(self):
        index = self.build()
        assert index.candidates("Atlantis") == []

    def test_primary_label(self):
        index = self.build()
        assert index.label(DBR.Michael_I_Jordan) == "Michael I. Jordan"

    def test_contains(self):
        index = self.build()
        assert "new york" in index
        assert "old york" not in index

    def test_duplicate_add_is_idempotent(self):
        index = self.build()
        index.add(DBR.Berlin, "Berlin")
        assert index.candidates("Berlin") == [DBR.Berlin]

    def test_empty_surface_ignored(self):
        index = SurfaceFormIndex()
        index.add(DBR.Berlin, "!!!")
        assert len(index) == 0

    def test_max_words(self):
        index = self.build()
        assert index.max_words == 3


class TestSpotting:
    def build(self):
        index = SurfaceFormIndex()
        index.add(DBR.Orhan_Pamuk, "Orhan Pamuk", primary=True)
        index.add(DBR.New_York_City, "New York City", primary=True)
        index.add(DBR.New_York_City, "New York")
        index.add(DBR.York, "York", primary=True)
        return index

    def test_single_mention(self):
        index = self.build()
        spots = list(index.spot("which book is written by orhan pamuk".split()))
        assert spots == [(5, 7, [DBR.Orhan_Pamuk])]

    def test_longest_match_wins(self):
        index = self.build()
        spots = list(index.spot("i visited new york city yesterday".split()))
        assert spots == [(2, 5, [DBR.New_York_City])]

    def test_shorter_fallback(self):
        index = self.build()
        spots = list(index.spot("the york minster".split()))
        assert spots == [(1, 2, [DBR.York])]

    def test_multiple_mentions(self):
        index = self.build()
        tokens = "orhan pamuk lives in new york".split()
        spans = [(s, e) for s, e, __ in index.spot(tokens)]
        assert spans == [(0, 2), (4, 6)]

    def test_no_mentions(self):
        index = self.build()
        assert list(index.spot("nothing to see here".split())) == []

    def test_case_insensitive_tokens(self):
        index = self.build()
        spots = list(index.spot(["Orhan", "Pamuk"]))
        assert spots[0][2] == [DBR.Orhan_Pamuk]


#: Forms of the differential index: multi-word, punctuated, accented and
#: nested ("New York" inside "New York City"), with one-letter words.
FORMS = {
    DBR.Orhan_Pamuk: ["Orhan Pamuk", "Pamuk, Orhan"],
    DBR.Orhan: ["Orhan"],
    DBR.New_York_City: ["New York City", "New York"],
    DBR.York: ["York"],
    DBR.Washington_DC: ["Washington, D.C.", "D.C."],
    DBR.Saint_Etienne: ["Saint-Étienne"],
    DBR.Strasse: ["Große Straße"],
    DBR.Forest: ["The Forest of the River 0-0"],
    DBR.C: ["C"],
}


def differential_index():
    index = SurfaceFormIndex()
    for entity, surfaces in FORMS.items():
        for surface in surfaces:
            index.add(entity, surface)
    return index


_WORDS = sorted({
    word
    for surfaces in FORMS.values()
    for surface in surfaces
    for word in surface.replace(",", "").split()
} | {"visited", "in", "of", "the"})


@st.composite
def mixed_case(draw):
    word = draw(st.sampled_from(_WORDS))
    flips = draw(st.lists(st.booleans(), min_size=len(word), max_size=len(word)))
    return "".join(ch.upper() if flip else ch.lower() for ch, flip in zip(word, flips))


tokens_strategy = st.lists(
    st.one_of(
        mixed_case(),
        st.sampled_from([",", "-", ".", "!"]),
        st.builds("_".join, st.lists(mixed_case(), min_size=2, max_size=3)),
        st.sampled_from(["D.C.", "New-York", "Pamuk,Orhan", "0-0", "d.c"]),
        st.just(""),
        st.text(alphabet="éÉßẞΣςçÅ", min_size=1, max_size=4),
    ),
    max_size=14,
)


class TestSpottingDifferential:
    """``spot`` against the per-window reference loop."""

    INDEX = differential_index()

    def assert_same(self, tokens):
        got = list(self.INDEX.spot(tokens))
        assert got == list(reference_spot(self.INDEX, tokens))
        return got

    @given(tokens_strategy)
    def test_matches_reference(self, tokens):
        self.assert_same(tokens)

    @given(st.lists(st.text(max_size=6), max_size=10))
    def test_matches_reference_on_any_text(self, tokens):
        self.assert_same(tokens)

    def test_edge_punctuation_absorbed(self):
        spots = self.assert_same([",", "Orhan", "Pamuk", ","])
        assert spots == [(0, 4, [DBR.Orhan_Pamuk])]

    def test_form_right_after_punctuation(self):
        # The start position holds "-", which begins no form, but its
        # windows normalise to forms starting with "new".
        spots = self.assert_same(["visited", "-", "New", "York", "City"])
        assert spots == [(1, 5, [DBR.New_York_City])]

    def test_generator_input(self):
        tokens = ["Große", "Straße", "in", "D.C."]
        assert list(self.INDEX.spot(iter(tokens))) == list(
            reference_spot(self.INDEX, tokens))

    def test_starts_form(self):
        assert self.INDEX.starts_form("ORHAN")
        assert self.INDEX.starts_form("D.C.")
        assert self.INDEX.starts_form("große")
        assert not self.INDEX.starts_form("City")
        assert not self.INDEX.starts_form(",")
        assert not self.INDEX.starts_form("")
