import re
import string

import pytest
from hypothesis import given, settings, strategies as st

from cryptic_prover import lexfiles
from cryptic_prover import notation as n
from cryptic_prover.core import ActionKind, Clue, Pattern
from cryptic_prover.formalize import ProofRequest, compile_wordplay
from cryptic_prover.oracles import Lexicon, seed_lexicon
from cryptic_prover.verifier import AssertEquality, Concat


WORKED = [
    ("(corset)* (*shredded)", "ESCORT"),
    ("BAN (outlaw) + KING (leader)", "BANKING"),
    ("O (nothing) with VICE (wickedness) around it (about)", "VOICE"),
    ("[c]RAVEN (cowardly) - 'C' (i.e. circa, about) (-fly away)", "RAVEN"),
    ("Double Definition (DD)", "BLIND"),
    ("[fo]UND ERMINE D[eer] (hides)", "UNDERMINED"),
    ('"pair" (twins, "we hear")', "PARE"),
    ("(LAGER)< (beer, <returned)", "REGAL"),
    ("D[one] (primarily) (most of) ELVE[s] (magical beings)", "DELVE"),
    ("CAME (arrived) + RA (artist, short form)", "CAMERA"),
]


# -- structures --------------------------------------------------------------


def test_charade_of_synonyms():
    node = n.parse_wordplay("PROP (support) + (ALSO)* (*broadcast)")
    assert node == n.Sequence(
        (n.SynonymOf("support", "PROP"), n.Anagram(n.Literal("ALSO"), "broadcast"))
    )


def test_reversal_with_shared_group():
    node = n.parse_wordplay("(LAGER)< (beer, <returned)")
    assert node == n.Reversal(n.SynonymOf("beer", "LAGER"), "returned")


def test_deletion_with_removal_note_and_commentary():
    node = n.parse_wordplay("[c]RAVEN (cowardly) - 'C' (i.e. circa, about) (-fly away)")
    assert node == n.Deletion(
        n.SynonymOf("cowardly", "CRAVEN"), "C", 0, "fly away"
    )


def test_container_with_wrap_back_phrasing():
    node = n.parse_wordplay("O (nothing) with VICE (wickedness) around it (about)")
    assert node == n.Container(
        outer=n.SynonymOf("wickedness", "VICE"),
        inner=n.AbbrevOf("nothing", "O"),
        indicator="about",
        outer_split=1,
        inserted=False,
    )


def test_container_insertion_phrasing():
    node = n.parse_wordplay("AB in CD (dog)")
    assert node == n.Container(
        outer=n.SynonymOf("dog", "CD"), inner=n.Literal("AB"), indicator="in", inserted=True
    )


def test_split_marker_sets_container_split():
    node = n.parse_wordplay("AB in C/DE (dog)")
    assert node.outer_split == 1 and node.outer == n.SynonymOf("dog", "CDE")
    node = n.parse_wordplay("AB in CD/E (dog)")
    assert node.outer_split == 2


def test_initials_and_trailing_deletion():
    node = n.parse_wordplay("D[one] (primarily) (most of) ELVE[s] (magical beings)")
    assert node == n.Sequence(
        (
            n.Initials(("done",), "primarily"),
            n.Deletion(
                n.SynonymOf("magical beings", "ELVES"), "S", 4, "most of"
            ),
        )
    )


def test_hidden_across_words():
    node = n.parse_wordplay("[fo]UND ERMINE D[eer] (hides)")
    assert node == n.Hidden("found ermine deer", "hides", "UNDERMINED", 2)


def test_hidden_within_single_word():
    node = n.parse_wordplay("[w]ASTE[r] (partly)")
    assert node == n.Hidden("waster", "partly", "ASTE", 1)


def test_inner_deletion_keeps_its_bracketed_position():
    node = n.parse_wordplay("BAN[a]NA")
    assert node == n.Deletion(n.Literal("BANANA"), "A", 3, "")
    assert n.surface_letters(node) == "BANNA"
    assert n.render_wordplay(node) == "BAN[a]NA"
    assert n.indicator_action(node) is None


def test_hidden_keeps_its_bracketed_occurrence():
    annotation = "[a]AA A[aa] (hides)"
    node = n.parse_wordplay(annotation)
    assert node == n.Hidden("aaa aaa", "hides", "AAA", 1)
    assert n.render_wordplay(node) == annotation
    request = ProofRequest(
        clue=Clue(surface="aaa aaa", pattern=Pattern.parse("3")),
        candidate_answer="AAA",
        definition="aaa aaa",
        wordplay=annotation,
    )
    concats = [
        [part.value for part in statement.lhs.parts]
        for statement in compile_wordplay(node, request).statements
        if isinstance(statement, AssertEquality) and isinstance(statement.lhs, Concat)
    ]
    assert concats == [["AA", "A"]]


def test_notes_after_a_plus_do_not_attach_backwards():
    with pytest.raises(n.ParseError, match="removal note without a deletion"):
        n.parse_wordplay("[c]RAVEN + -'c'")
    with pytest.raises(n.ParseError):
        n.parse_wordplay("[c]RAVEN + (-fly away)")


def test_homophone_with_origin_and_indicator():
    node = n.parse_wordplay('"pair" (twins, "we hear")')
    assert node == n.Homophone("pair", "we hear", letters="PAIR", origin="twins")


def test_homophone_with_explicit_letters():
    node = n.parse_wordplay('PARE "pair" (twins, "we hear")')
    assert node.letters == "PARE"
    assert node.sounds_like == "pair"


def test_double_definition_forms():
    assert n.parse_wordplay("DD") == n.DoubleDefinition()
    assert n.parse_wordplay("Double Definition (DD)") == n.DoubleDefinition()


def test_abbreviation_marker_forces_short_form():
    node = n.parse_wordplay("CAME (arrived) + RA (artist, short form)")
    assert node == n.Sequence((n.SynonymOf("arrived", "CAME"), n.AbbrevOf("artist", "RA")))


def test_short_caps_with_known_expansion_becomes_abbreviation():
    node = n.parse_wordplay("O (nothing)")
    assert node == n.AbbrevOf("nothing", "O")


def test_unknown_gloss_on_short_caps_stays_synonym():
    node = n.parse_wordplay("RAN (sprinted)")
    assert node == n.SynonymOf("sprinted", "RAN")


def test_commentary_groups_are_dropped():
    node = n.parse_wordplay("KING (leader) (KING = e.g. a monarch)")
    assert node == n.SynonymOf("leader", "KING")


def test_plus_keeps_fragments_apart():
    node = n.parse_wordplay('AB + "cd"')
    assert node == n.Sequence((n.Literal("AB"), n.Homophone("cd", "")))


# -- surface letters ---------------------------------------------------------


def test_surface_letters_examples():
    assert n.surface_letters(n.parse_wordplay("BAN (outlaw) + KING (leader)")) == "BANKING"
    assert (
        n.surface_letters(
            n.parse_wordplay("D[one] (primarily) (most of) ELVE[s] (magical beings)")
        )
        == "DELVE"
    )
    assert n.surface_letters(n.Literal("X")) == "X"


def test_surface_letters_reversal_reverses():
    node = n.Reversal(n.Literal("LAGER"), "returned")
    assert n.surface_letters(node) == "REGAL"


def test_surface_letters_container_splices():
    node = n.Container(n.Literal("VICE"), n.Literal("O"), "about", 1)
    assert n.surface_letters(node) == "VOICE"


def test_surface_letters_double_definition_is_empty():
    assert n.surface_letters(n.DoubleDefinition()) == ""


# -- resolution against answers ----------------------------------------------


@pytest.mark.parametrize("annotation,answer", WORKED)
def test_worked_examples_account_for_answers(annotation, answer):
    assert n.resolve(n.parse_wordplay(annotation), answer) is not None


def test_anagram_resolves_by_letter_multiset():
    node = n.parse_wordplay("(corset)* (*shredded)")
    assert n.resolve(node, "ESCORT") is not None
    assert n.resolve(node, "CORSET") is not None
    assert n.resolve(node, "ESCORTS") is None
    assert n.resolve(node, "SECTOR".replace("S", "Z")) is None


def test_homophone_resolves_by_sound():
    node = n.Homophone("night", "we hear")
    assert n.resolve(node, "KNIGHT") is not None
    assert n.resolve(node, "NIGHT") is not None
    assert n.resolve(node, "DAY") is None


def test_container_split_search():
    # The annotation defaults to a split of 1; resolution still finds VO-ICE
    # style alternatives when the declared split cannot work.
    node = n.Container(n.Literal("VICE"), n.Literal("O"), "about", 3)
    result = n.resolve(node, "VOICE")
    assert result is not None and result.split == 1


def test_double_definition_accounts_for_any_answer():
    assert n.resolve(n.DoubleDefinition(), "BLIND") is not None


def test_resolution_records_sequence_chunks():
    node = n.parse_wordplay("CAME (arrived) + RA (artist, short form)")
    result = n.resolve(node, "CAMERA")
    assert [part.letters for part in result.parts] == ["CAME", "RA"]


def test_sequence_with_homophone_partitions_flexibly():
    node = n.Sequence((n.Homophone("night", "heard"), n.Literal("S")))
    assert n.resolve(node, "KNIGHTS") is not None


# -- rendering ---------------------------------------------------------------


def test_render_examples():
    assert n.render_wordplay(n.Anagram(n.Literal("CORSET"), "shredded")) == "(CORSET)* (*shredded)"
    assert n.render_wordplay(n.DoubleDefinition()) == "DD"
    assert (
        n.render_wordplay(n.Sequence((n.SynonymOf("outlaw", "BAN"), n.SynonymOf("leader", "KING"))))
        == "BAN (outlaw) + KING (leader)"
    )


@pytest.mark.parametrize("annotation,_answer", WORKED)
def test_round_trip_on_worked_examples(annotation, _answer):
    node = n.parse_wordplay(annotation)
    assert n.parse_wordplay(n.render_wordplay(node)) == node


@pytest.mark.parametrize(
    "node",
    [
        n.Container(n.SynonymOf("outlaw", "BAN"), n.SynonymOf("leader", "KING"), "clutching", 2),
        n.Container(n.Literal("CD"), n.AbbrevOf("zero", "O"), "boarding", 1, inserted=True),
    ],
)
def test_round_trip_under_a_custom_lexicon(node):
    # Neither connector is in the seed lexicon, so both directions must use this one.
    lexicon = Lexicon(
        indicators={
            "clutching": [ActionKind.GOES_OUTSIDE],
            "boarding": [ActionKind.GOES_INSIDE],
        },
        abbreviations={"O": ["zero"]},
    )
    text = n.render_wordplay(node, lexicon)
    assert "(" + node.indicator + ")" not in text
    assert n.parse_wordplay(text, lexicon) == node


# -- errors ------------------------------------------------------------------


def test_nested_container_annotation_is_rejected():
    with pytest.raises(n.ParseError) as err:
        n.parse_wordplay("RUD[e] (about, S (son))")
    assert err.value.position > 0
    assert err.value.matched_prefix.startswith("RUD[e]")


def test_parse_error_reports_position_and_prefix():
    with pytest.raises(n.ParseError) as err:
        n.parse_wordplay("BAN (outlaw) %")
    assert err.value.position == 13
    assert err.value.matched_prefix == "BAN (outlaw) "


def test_a_container_whose_outer_part_has_one_letter_is_a_parse_error():
    for annotation in ("O in V", "V around O", "O (x) in V (y)"):
        with pytest.raises(n.ParseError, match="container cannot split its outer part"):
            n.parse_wordplay(annotation)


def test_unclosed_group_is_rejected():
    with pytest.raises(n.ParseError):
        n.parse_wordplay("BAN (outlaw")


def test_unresolved_plain_word_is_rejected():
    with pytest.raises(n.ParseError):
        n.parse_wordplay("BAN frequently")


def test_dangling_star_is_rejected():
    with pytest.raises(n.ParseError):
        n.parse_wordplay("CORSET*")


def test_empty_annotation_is_rejected():
    with pytest.raises(n.ParseError):
        n.parse_wordplay("   ")


def test_mismatched_removal_note_is_rejected():
    with pytest.raises(n.ParseError):
        n.parse_wordplay("[c]RAVEN (cowardly) - 'X'")


def test_deletion_validation():
    with pytest.raises(ValueError):
        n.Deletion(n.Literal("RAVEN"), "C", 0, "")
    with pytest.raises(ValueError):
        n.Deletion(n.Literal("AB"), "AB", 0, "")
    with pytest.raises(ValueError):
        n.Deletion(n.Literal("BANANA"), "A", 2, "")
    with pytest.raises(ValueError):
        n.Deletion(n.Literal("BANANA"), "A", -1, "")


def test_hidden_validation():
    with pytest.raises(ValueError):
        n.Hidden("banana", "", "ANA", 2)
    with pytest.raises(ValueError):
        n.Hidden("banana", "", "ANA", -3)


def test_hidden_rejects_a_run_the_brackets_cannot_write():
    with pytest.raises(ValueError, match="cannot be written"):
        n.Hidden("waster", "partly", "WAST", 0)  # would render WAST[er]
    with pytest.raises(ValueError, match="cannot be written"):
        n.Hidden("waster", "partly", "STER", 2)  # would render [wa]STER
    with pytest.raises(ValueError, match="cannot be written"):
        n.Hidden("aaa aaa", "", "A", 4)  # starts past the first word
    with pytest.raises(ValueError, match="cannot be written"):
        n.Hidden("aaa aaa", "", "A", 1)  # ends before the last word
    assert n.Hidden("aaa aaa", "hides", "AAA", 3).start == 3  # [aaa] AAA


def test_sequence_validation():
    with pytest.raises(ValueError):
        n.Sequence((n.Literal("AB"),))
    with pytest.raises(ValueError):
        n.Sequence((n.Literal("AB"), n.DoubleDefinition()))


def test_container_split_validation():
    with pytest.raises(ValueError):
        n.Container(n.Literal("AB"), n.Literal("C"), "about", 2)


# -- generated round trips ---------------------------------------------------


_LEXICON = seed_lexicon()
_SIGNIFIERS = lexfiles.load_indicators(lexfiles.seed_lexicon_files()["indicators"])
_RESERVED = (
    {"short form", "abbreviation", "abbrev", "abbr", "for short", "short for"}
    | {"of", "to", "on", "a", "an", "the", "and", "it", "is", "for", "with"}
)


def _plain(word):
    """A word the parser reads as a gloss: not a signifier, abbreviated phrase or marker."""
    return not (_LEXICON.actions(word) or _LEXICON.short_forms(word) or word in _RESERVED)


caps = st.text(alphabet=string.ascii_uppercase, min_size=2, max_size=6).filter(
    lambda s: s != "DD"
)
words = st.text(alphabet="abcdefgh", min_size=2, max_size=7).filter(_plain)


def indicator_for(action):
    return st.sampled_from(sorted(p for p, acts in _SIGNIFIERS.items() if action in acts))


literals = st.builds(n.Literal, caps)
synonyms = st.builds(n.SynonymOf, words, caps)
abbrevs = st.builds(n.AbbrevOf, words, caps)
leaves = st.one_of(literals, synonyms, abbrevs)

anagrams = st.builds(n.Anagram, leaves, st.one_of(st.just(""), words))
reversals = st.builds(n.Reversal, leaves, st.one_of(st.just(""), words))


@st.composite
def deletions(draw):
    source = draw(leaves)
    letters = source.letters
    start = draw(st.integers(0, len(letters) - 1))
    end = draw(st.integers(start + 1, len(letters) - (start == 0)))
    if start == 1 and end == len(letters):
        start = end - 1  # "A[bc]" reads as an initial, so delete one last letter
    removed = letters[start:end]
    return n.Deletion(source, removed, start, draw(st.one_of(st.just(""), words)))


# Two-letter words are left out: "A[a]" reads as a deletion, not an initial.
initial_words = st.text(alphabet="abcdefgh", min_size=3, max_size=7).filter(_plain)


@st.composite
def initials(draw):
    phrases = tuple(draw(st.lists(initial_words, min_size=1, max_size=3)))
    if len(phrases) == 1 and draw(st.booleans()):
        indicator = ""
    else:
        indicator = draw(indicator_for(ActionKind.INITIALS))
    return n.Initials(phrases, indicator)


@st.composite
def hiddens(draw):
    host_words = draw(
        st.lists(st.text(alphabet="abcdefgh", min_size=2, max_size=6), min_size=2, max_size=3)
    )
    total = sum(len(w) for w in host_words)
    start = draw(st.integers(1, len(host_words[0])))
    end = draw(st.integers(total - len(host_words[-1]), total - 1))
    if end <= start:
        start, end = 1, total - 1
    letters = "".join(host_words).upper()[start:end]
    indicator = draw(st.one_of(st.just(""), indicator_for(ActionKind.SUBSTRING)))
    return n.Hidden(" ".join(host_words), indicator, letters, start)


homophones = st.builds(
    n.Homophone,
    words,
    st.one_of(st.just(""), words),
    letters=st.one_of(st.just(""), caps),
    origin=st.one_of(st.just(""), words),
)


@st.composite
def containers(draw):
    outer = draw(leaves)
    inner = draw(leaves)
    inserted = draw(st.booleans())
    action = ActionKind.GOES_INSIDE if inserted else ActionKind.GOES_OUTSIDE
    return n.Container(
        outer,
        inner,
        draw(indicator_for(action)),
        draw(st.integers(1, len(outer.letters) - 1)),
        inserted,
    )


sequence_parts = st.one_of(
    leaves, anagrams, reversals, deletions(), initials(), hiddens(), homophones, containers()
)
sequences = st.builds(n.Sequence, st.lists(sequence_parts, min_size=2, max_size=3).map(tuple))

nodes = st.one_of(sequence_parts, st.just(n.DoubleDefinition()), sequences)


@given(nodes)
@settings(max_examples=200, deadline=None)
def test_parse_inverts_render(node):
    assert n.parse_wordplay(n.render_wordplay(node)) == node


@given(nodes)
@settings(max_examples=100, deadline=None)
def test_surface_letters_is_stable_under_round_trip(node):
    again = n.parse_wordplay(n.render_wordplay(node))
    assert n.surface_letters(again) == n.surface_letters(node)


def _unchecked_hidden(host_text, letters, start):
    """A Hidden node built without its checks, so that any start can be rendered."""
    node = object.__new__(n.Hidden)
    fields = {"host_text": host_text, "indicator": "hides", "letters": letters, "start": start}
    for name, value in fields.items():
        object.__setattr__(node, name, value)
    return node


@st.composite
def hidden_runs(draw):
    """A host of one to three words and any run of its letters."""
    host_words = draw(
        st.lists(st.text(alphabet="abc", min_size=1, max_size=4), min_size=1, max_size=3)
    )
    host = "".join(host_words).upper()
    start = draw(st.integers(0, len(host) - 1))
    end = draw(st.integers(start + 1, len(host)))
    return " ".join(host_words), host[start:end], start


@given(hidden_runs())
@settings(max_examples=300, deadline=None)
def test_hidden_accepts_exactly_the_runs_that_round_trip(run):
    host_text, letters, start = run
    try:
        n.Hidden(host_text, "hides", letters, start)
        accepted = True
    except ValueError:
        accepted = False
    node = _unchecked_hidden(host_text, letters, start)
    try:
        round_trips = n.parse_wordplay(n.render_wordplay(node)) == node
    except ValueError:
        round_trips = False
    assert accepted == round_trips, n.render_wordplay(node)


@given(hiddens())
@settings(max_examples=200, deadline=None)
def test_compiled_hidden_pieces_are_the_rendered_capitals(node):
    letters = node.letters
    request = ProofRequest(
        clue=Clue(surface=node.host_text, pattern=Pattern.parse(str(len(letters)))),
        candidate_answer=letters,
        definition=node.host_text,
        wordplay=n.render_wordplay(node),
    )
    concats = [
        statement.lhs
        for statement in compile_wordplay(node, request).statements
        if isinstance(statement, AssertEquality) and isinstance(statement.lhs, Concat)
    ]
    pieces = [part.value for part in concats[0].parts] if concats else [letters]
    assert pieces == re.findall(r"[A-Z]+", n.render_wordplay(node))
