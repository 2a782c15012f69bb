from __future__ import annotations

import string

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cryptic_prover.core import (
    ActionKind,
    Clue,
    Direction,
    Pattern,
    PatternError,
    _normalize_unicode_letters,
    normalize_letters,
    pattern_matches,
    phonetic_key,
)


class TestNormalizeLetters:
    def test_strips_everything_but_letters(self):
        assert normalize_letters("son’s computer-language!") == "SONSCOMPUTERLANGUAGE"

    def test_uppercases(self):
        assert normalize_letters("corset") == "CORSET"

    def test_folds_accents(self):
        assert normalize_letters("café Köln") == "CAFEKOLN"

    def test_empty(self):
        assert normalize_letters("42 --- !") == ""

    @given(st.text(max_size=40))
    def test_idempotent(self, text):
        once = normalize_letters(text)
        assert normalize_letters(once) == once

    @given(st.text(max_size=40))
    def test_output_alphabet(self, text):
        assert all("A" <= c <= "Z" for c in normalize_letters(text))

    @given(
        st.one_of(
            st.text(max_size=40),
            st.text(alphabet=st.characters(max_codepoint=127), max_size=40),
            st.text(alphabet="aZ9 -'ßéÅçøﬁ²", max_size=40),
        )
    )
    def test_ascii_fast_path_equals_the_nfkd_path(self, text):
        assert normalize_letters(text) == _normalize_unicode_letters(text)

    @given(
        st.one_of(
            st.from_regex(r"[A-Za-z]+", fullmatch=True),
            st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=40),
        )
    )
    @example("")
    @example("a")
    @example("Z")
    @example(string.ascii_letters)
    @example("a-b")
    @example("a b")
    def test_the_ascii_letters_only_path_equals_the_nfkd_path(self, text):
        assert normalize_letters(text) == _normalize_unicode_letters(text)

    def test_sharp_s_and_accents_fold_to_their_ascii_spelling(self):
        assert normalize_letters("Straße, 2 cafés") == "STRASSECAFES"
        assert normalize_letters("Strasse, 2 cafes") == "STRASSECAFES"


class TestPhoneticKey:
    def test_silent_k(self):
        assert phonetic_key("night") == phonetic_key("knight")

    def test_vowel_respelling(self):
        assert phonetic_key("pair") == phonetic_key("pare")

    def test_distinct_words_differ(self):
        assert phonetic_key("camera") != phonetic_key("banking")

    def test_empty(self):
        assert phonetic_key("'''") == ""

    def test_leading_vowel_flattens(self):
        assert phonetic_key("eight")[0] == "A"
        assert phonetic_key("eight") == phonetic_key("ate")


class TestPattern:
    def test_single_group(self):
        p = Pattern.parse("8")
        assert p.groups == (8,)
        assert p.total == 8
        assert p.render() == "8"

    def test_multi_word(self):
        p = Pattern.parse("3,4")
        assert p.groups == (3, 4)
        assert p.separators == (",",)
        assert p.total == 7

    def test_hyphenated(self):
        p = Pattern.parse("5-2")
        assert p.separators == ("-",)
        assert p.render() == "5-2"

    def test_whitespace_ignored(self):
        assert Pattern.parse(" 3 , 4 ") == Pattern.parse("3,4")

    @pytest.mark.parametrize("bad", ["", "a", "3,,4", "0", "3-", ",4", "3+4"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(PatternError):
            Pattern.parse(bad)

    def test_rejects_zero_group(self):
        with pytest.raises(PatternError):
            Pattern((3, 0), (",",))

    @given(
        st.lists(st.integers(min_value=1, max_value=15), min_size=1, max_size=4),
        st.sampled_from([",", "-"]),
    )
    def test_parse_render_round_trip(self, groups, sep):
        p = Pattern(tuple(groups), tuple(sep for _ in groups[1:]))
        assert Pattern.parse(p.render()) == p


class TestPatternMatches:
    def test_counts_letters_only(self):
        assert pattern_matches("PROPOSAL", Pattern.parse("8"))
        assert pattern_matches("ice cream", Pattern.parse("3,5"))
        assert not pattern_matches("PROPOSAL", Pattern.parse("7"))

    def test_total_only_for_multi_group(self):
        # Group boundaries are not checked, just the letter total.
        assert pattern_matches("ICECREAM", Pattern.parse("4,4"))


class TestActionKind:
    def test_nine_kinds(self):
        assert len(ActionKind) == 9

    def test_round_trip_names(self):
        for kind in ActionKind:
            assert ActionKind.from_name(kind.name) is kind

    def test_is_outside_alias(self):
        assert ActionKind.from_name("IS_OUTSIDE") is ActionKind.GOES_OUTSIDE

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            ActionKind.from_name("EXPLODES")


class TestClue:
    def test_gold_answer_must_fit_pattern(self):
        with pytest.raises(ValueError):
            Clue(surface="x", pattern=Pattern.parse("4"), gold_answer="TOOLONGF")

    def test_definition_must_match_surface(self):
        with pytest.raises(ValueError):
            Clue(
                surface="Chaperone shredded corset",
                pattern=Pattern.parse("6"),
                gold_definition="{Chaperone} shredded girdle",
            )

    def test_well_formed(self):
        clue = Clue(
            surface="Chaperone shredded corset",
            pattern=Pattern.parse("6"),
            direction=Direction.from_letter("A"),
            gold_answer="ESCORT",
            gold_definition="{Chaperone} shredded corset",
            gold_wordplay="(corset)* (*shredded)",
        )
        assert clue.pattern.total == 6
