"""Predicate behaviour against the seed lexicon and synthetic tables."""

import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cryptic_prover import lexfiles
from cryptic_prover.core import ActionKind
from cryptic_prover.oracles import Lexicon, OracleVerdict, seed_lexicon


@pytest.fixture(scope="module")
def lex():
    return seed_lexicon()


class TestIsSynonym:
    def test_thesaurus_hit(self, lex):
        assert lex.is_synonym("arrived", "CAME").ok

    def test_case_folded_lookup(self, lex):
        assert lex.is_synonym("Arrived", "came").ok

    def test_identity_counts(self, lex):
        assert lex.is_synonym("camera", "CAMERA").ok

    def test_unknown_phrase_fails_with_note(self, lex):
        verdict = lex.is_synonym("quasar", "STAR")
        assert not verdict.ok
        assert verdict.near_misses == ("'quasar' is not in the thesaurus",)

    def test_known_phrase_wrong_candidate_lists_entries(self, lex):
        verdict = lex.is_synonym("assistant", "ASS")
        assert not verdict.ok
        assert verdict.near_misses == (
            "'assistant' is not a recorded synonym of 'ASS'; "
            "'assistant' can mean : aide, helper",
        )

    def test_pattern_checked_when_given(self, lex):
        assert lex.is_synonym("optical device", "CAMERA", "6").ok
        verdict = lex.is_synonym("optical device", "CAMERA", "3,3")
        assert verdict.ok  # only the letter total is knowable
        verdict = lex.is_synonym("optical device", "CAMERA", "7")
        assert not verdict.ok
        assert verdict.near_misses == ("'CAMERA' does not fit the pattern '7'",)

    def test_bad_pattern_string_is_a_failure_not_a_crash(self, lex):
        verdict = lex.is_synonym("arrived", "CAME", "4x")
        assert not verdict.ok
        assert "not a valid length pattern" in verdict.near_misses[0]

    def test_no_article_stripping(self, lex):
        assert not lex.is_synonym("an arrived", "CAME").ok


class TestIsAbbreviation:
    def test_seed_hits(self, lex):
        assert lex.is_abbreviation("artist", "RA").ok
        assert lex.is_abbreviation("son", "S").ok
        assert lex.is_abbreviation("nothing", "O").ok

    def test_display_case_of_phrase_is_ignored(self, lex):
        assert lex.is_abbreviation("Royal Artillery", "ra").ok

    def test_unknown_phrase_hint_lists_expansions_in_file_order(self, lex):
        verdict = lex.is_abbreviation("an Artist", "RA")
        assert not verdict.ok
        assert verdict.near_misses == (
            "'an Artist' does not have a valid abbreviation",
            "'RA' is an abbreviation for : artist, artillery, Royal Artillery, "
            "gunners, painter",
        )

    def test_known_phrase_wrong_short(self, lex):
        verdict = lex.is_abbreviation("artist", "XX")
        assert not verdict.ok
        assert verdict.near_misses == (
            "'artist' abbreviates to : RA",
            "'XX' is not a recorded abbreviation",
        )


class TestActionType:
    def test_seed_hits(self, lex):
        assert lex.action_type("shredded", ActionKind.ANAGRAM).ok
        assert lex.action_type("treatment", ActionKind.ANAGRAM).ok
        assert lex.action_type("we hear", ActionKind.HOMOPHONE).ok
        assert lex.action_type("about", ActionKind.GOES_OUTSIDE).ok
        assert lex.action_type("most of", ActionKind.REMOVE_LAST).ok

    def test_sub_word_hint(self, lex):
        verdict = lex.action_type("goes crazy", ActionKind.ANAGRAM)
        assert not verdict.ok
        assert verdict.near_misses == (
            "'goes crazy' itself does not suggest Action.ANAGRAM, but 'crazy' does",
        )

    def test_other_action_hint(self, lex):
        verdict = lex.action_type("worked", ActionKind.HOMOPHONE)
        assert not verdict.ok
        assert verdict.near_misses == (
            "'worked' does not suggest Action.HOMOPHONE, but maybe Action.ANAGRAM",
        )

    def test_no_hint_available(self, lex):
        verdict = lex.action_type("velvet", ActionKind.REVERSE)
        assert not verdict.ok
        assert verdict.near_misses == ("'velvet' does not suggest Action.REVERSE",)

    def test_longest_sub_phrase_wins(self):
        lexicon = Lexicon(
            indicators={
                "odd": {ActionKind.SUBSTRING},
                "odd letters": {ActionKind.SUBSTRING},
            }
        )
        verdict = lexicon.action_type("the odd letters", ActionKind.SUBSTRING)
        assert verdict.near_misses == (
            "'the odd letters' itself does not suggest Action.SUBSTRING, "
            "but 'odd letters' does",
        )


class TestIsAnagram:
    def test_seed_examples(self, lex):
        assert lex.is_anagram("corset", "ESCORT").ok
        assert lex.is_anagram("MEDICAL", "DECIMAL").ok

    def test_symmetry_on_examples(self, lex):
        assert lex.is_anagram("ESCORT", "corset").ok

    def test_identical_spelling_is_not_an_anagram(self, lex):
        verdict = lex.is_anagram("CAMERA", "camera")
        assert not verdict.ok
        assert "spelled identically" in verdict.near_misses[0]

    def test_letter_difference_note(self, lex):
        verdict = lex.is_anagram("CORSET", "ESCORTS")
        assert not verdict.ok
        assert verdict.near_misses == ("'CORSET' vs 'ESCORTS' letter difference : +S",)
        verdict = lex.is_anagram("ESCORTS", "CORSET")
        assert verdict.near_misses == ("'ESCORTS' vs 'CORSET' letter difference : -S",)

    def test_empty_operands(self, lex):
        assert not lex.is_anagram("", "").ok

    @given(
        st.text(alphabet="abcde", min_size=0, max_size=8),
        st.text(alphabet="abcde", min_size=0, max_size=8),
    )
    def test_matches_brute_force(self, a, b):
        lexicon = Lexicon()
        expected = Counter(a.upper()) == Counter(b.upper()) and a.upper() != b.upper()
        assert lexicon.is_anagram(a, b).ok is expected

    @given(
        st.text(alphabet="abcde", min_size=0, max_size=8),
        st.text(alphabet="abcde", min_size=0, max_size=8),
    )
    def test_symmetric(self, a, b):
        lexicon = Lexicon()
        assert lexicon.is_anagram(a, b).ok is lexicon.is_anagram(b, a).ok


class TestIsHomophone:
    def test_lexicon_pair(self, lex):
        assert lex.is_homophone("pair", "PARE").ok
        assert lex.is_homophone("PARE", "pair").ok

    def test_phonetic_key_match(self, lex):
        assert lex.is_homophone("night", "KNIGHT").ok

    def test_same_spelling_rejected(self, lex):
        verdict = lex.is_homophone("pair", "PAIR")
        assert not verdict.ok
        assert verdict.near_misses == (
            "'pair' sounds like PR; 'PAIR' sounds like PR",
            "a homophone needs a different spelling",
        )

    def test_different_keys_reported(self, lex):
        verdict = lex.is_homophone("dog", "CAT")
        assert not verdict.ok
        assert verdict.near_misses == ("'dog' sounds like DG; 'CAT' sounds like KT",)


class TestVerdictAndLexicon:
    def test_verdict_is_truthy_on_ok(self):
        assert OracleVerdict(True)
        assert not OracleVerdict(False, ("note",))

    def test_calls_are_pure(self, lex):
        first = lex.is_abbreviation("an Artist", "RA")
        second = lex.is_abbreviation("an Artist", "RA")
        assert first == second

    def test_actions_and_short_forms_fold_the_phrase(self, lex):
        assert ActionKind.ANAGRAM in lex.actions(" Shredded ")
        assert ActionKind.HOMOPHONE in lex.actions("We hear")
        assert lex.actions("outlaw") == frozenset()
        assert "RA" in lex.short_forms(" Artist ")
        assert lex.short_forms("outlaw") == ()

    def test_from_files(self, tmp_path):
        (tmp_path / "abbr.tsv").write_text("Z\tzero\n", encoding="utf-8")
        (tmp_path / "thes.tsv").write_text("nothing\tzip\n", encoding="utf-8")
        (tmp_path / "ind.tsv").write_text("ANAGRAM\tstirred\n", encoding="utf-8")
        (tmp_path / "homo.tsv").write_text("two\ttoo\n", encoding="utf-8")
        (tmp_path / "words.txt").write_text("zip\n", encoding="utf-8")
        lexicon = Lexicon.from_files(
            abbreviations=tmp_path / "abbr.tsv",
            thesaurus=tmp_path / "thes.tsv",
            indicators=[tmp_path / "ind.tsv"],
            homophones=tmp_path / "homo.tsv",
            wordlist=tmp_path / "words.txt",
        )
        assert lexicon.is_abbreviation("zero", "Z").ok
        assert lexicon.is_synonym("nothing", "ZIP").ok
        assert lexicon.action_type("stirred", ActionKind.ANAGRAM).ok
        assert lexicon.is_homophone("two", "TOO").ok
        assert lexicon.wordlist == ("ZIP",)

    @pytest.mark.parametrize("as_path", [str, Path], ids=["str", "Path"])
    def test_one_indicators_path_reads_as_a_one_file_list(self, as_path):
        path = lexfiles.seed_path("lexicon/indicators.tsv")
        single = Lexicon.from_files(indicators=as_path(path))
        listed = Lexicon.from_files(indicators=[path])
        for phrase in ("shredded", "returned", "heard", "unknown phrase"):
            assert single.actions(phrase) == listed.actions(phrase)
        assert listed.actions("shredded")


    def test_lexicon_lines_end_at_newline_only(self, tmp_path):
        path = tmp_path / "thes.tsv"
        path.write_bytes(b"# note\rchaperone\tcamera\nescort\tguide\r\n")
        assert lexfiles.load_thesaurus(path) == {"escort": ["guide"]}


WORKED_PREDICATE_CALLS = [
    ("is_synonym", ("Chaperone", "ESCORT", "6")),
    ("action_type", ("shredded", ActionKind.ANAGRAM)),
    ("is_anagram", ("corset", "ESCORT")),
    ("is_synonym", ("outlaw", "BAN", None)),
    ("is_synonym", ("leader", "KING", None)),
    ("is_synonym", ("Managing money", "BANKING", "7")),
    ("is_abbreviation", ("nothing", "O")),
    ("is_synonym", ("wickedness", "VICE", None)),
    ("action_type", ("about", ActionKind.GOES_OUTSIDE)),
    ("is_synonym", ("Utter", "VOICE", "5")),
    ("is_synonym", ("cowardly", "CRAVEN", None)),
    ("action_type", ("fly away", ActionKind.REMOVE_FIRST)),
    ("is_synonym", ("bird", "RAVEN", "5")),
    ("is_synonym", ("Not seeing", "BLIND", "5")),
    ("is_synonym", ("window covering", "BLIND", "5")),
    ("action_type", ("hides", ActionKind.SUBSTRING)),
    ("is_synonym", ("damaged", "UNDERMINED", "10")),
    ("is_homophone", ("pair", "PARE")),
    ("action_type", ("we hear", ActionKind.HOMOPHONE)),
    ("is_synonym", ("twins", "PAIR", None)),
    ("is_synonym", ("shave", "PARE", "4")),
    ("is_synonym", ("beer", "LAGER", None)),
    ("action_type", ("returned", ActionKind.REVERSE)),
    ("is_synonym", ("fit for a king", "REGAL", "5")),
    ("action_type", ("primarily", ActionKind.INITIALS)),
    ("action_type", ("most of", ActionKind.REMOVE_LAST)),
    ("is_synonym", ("magical beings", "ELVES", None)),
    ("is_synonym", ("research", "DELVE", "5")),
    ("is_synonym", ("arrived", "CAME", None)),
    ("is_abbreviation", ("artist", "RA")),
    ("is_synonym", ("optical device", "CAMERA", "6")),
]


@pytest.mark.parametrize("name,args", WORKED_PREDICATE_CALLS)
def test_worked_example_predicates_hold(lex, name, args):
    verdict = getattr(lex, name)(*args)
    assert verdict.ok, verdict.near_misses


def test_random_anagram_pairs_against_brute_force():
    rng = random.Random(20260815)
    lexicon = Lexicon()
    for _ in range(1000):
        a = "".join(rng.choice("ABCDE") for _ in range(rng.randint(0, 7)))
        if rng.random() < 0.5:
            b = "".join(rng.sample(a, len(a)))
        else:
            b = "".join(rng.choice("ABCDE") for _ in range(rng.randint(0, 7)))
        expected = Counter(a) == Counter(b) and a != b
        assert lexicon.is_anagram(a, b).ok is expected
