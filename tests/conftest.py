"""Fixtures shared by the test modules."""

import pytest
from cryptic_prover import lexfiles
from cryptic_prover.oracles import Lexicon


def _seed_lexicon_with(*pairs: tuple[str, str]) -> Lexicon:
    """The packaged tables plus ``(phrase, candidate)`` thesaurus pairs, in a new Lexicon."""
    files = lexfiles.seed_lexicon_files()
    thesaurus = lexfiles.load_thesaurus(files["thesaurus"])
    for phrase, candidate in pairs:
        thesaurus.setdefault(phrase.casefold(), []).append(candidate)
    return Lexicon(
        abbreviations=lexfiles.load_abbreviations(files["abbreviations"]),
        synonyms=thesaurus,
        indicators=lexfiles.load_indicators(files["indicators"]),
        homophone_pairs=lexfiles.load_homophones(files["homophones"]),
        wordlist=lexfiles.load_wordlist(files["wordlist"]),
    )


@pytest.fixture(scope="session")
def seed_lexicon_with():
    """Build the packaged lexicon with extra thesaurus pairs: ``seed_lexicon_with(("a", "B"))``."""
    return _seed_lexicon_with
