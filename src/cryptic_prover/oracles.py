"""Lexicon-backed predicates that decide whether proof steps hold.

Proof scripts justify each move with calls such as ``is_synonym('arrived',
'CAME')`` or ``action_type('shredded', Action.ANAGRAM)``.  This module
answers those calls from plain lexicon files and, when the answer is no,
collects near-miss notes a solver can act on (the known expansions of an
abbreviation, the sub-word that does signify the action, and so on).

Note formats are part of the package's stable output surface; failure
reports are compared byte for byte in tests.  Lookups are case-folded but
display forms are kept exactly as written in the lexicon files, in file
order, so hints read the way the files do.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from os import PathLike
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from cryptic_prover import lexfiles
from cryptic_prover.core import (
    ActionKind,
    Pattern,
    PatternError,
    normalize_letters,
    pattern_matches,
    phonetic_key,
)


@dataclass(frozen=True)
class OracleVerdict:
    """Outcome of one predicate call plus any near-miss notes."""

    ok: bool
    near_misses: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def _quoted_list(entries: Iterable[str]) -> str:
    return ", ".join(entries)


def _letter_difference(left: str, right: str) -> str:
    """Signed letter diff, e.g. '+S' when right has an extra S."""
    from collections import Counter

    extra = Counter(right) - Counter(left)
    missing = Counter(left) - Counter(right)
    parts = [f"+{ch}" for ch in sorted(extra.elements())]
    parts += [f"-{ch}" for ch in sorted(missing.elements())]
    return " ".join(parts)


class Lexicon:
    """Immutable lookup tables for the five predicates.

    ``abbreviations`` maps a short form to its expansions, ``synonyms``
    maps a phrase to candidate answers, ``indicators`` maps a signifier
    phrase to the actions it can mark, ``homophone_pairs`` holds unordered
    sound-alike pairs and ``wordlist`` holds known crossword answers.
    ``actions`` and ``short_forms`` expose the signifier and short-form
    tables to the wordplay parser, so notation and proofs read one lexicon.
    """

    def __init__(
        self,
        *,
        abbreviations: Optional[dict[str, Sequence[str]]] = None,
        synonyms: Optional[dict[str, Sequence[str]]] = None,
        indicators: Optional[dict[str, Iterable[ActionKind]]] = None,
        homophone_pairs: Optional[Iterable[frozenset[str]]] = None,
        wordlist: Optional[Iterable[str]] = None,
    ):
        self._expansions: dict[str, tuple[str, ...]] = {}
        self._shorts_by_phrase: dict[str, tuple[str, ...]] = {}
        for short, phrases in (abbreviations or {}).items():
            key = normalize_letters(short)
            self._expansions[key] = tuple(phrases)
            for phrase in phrases:
                fold = phrase.casefold()
                known = self._shorts_by_phrase.get(fold, ())
                if key not in known:
                    self._shorts_by_phrase[fold] = known + (key,)
        self._synonyms: dict[str, tuple[str, ...]] = {
            phrase.casefold(): tuple(entries) for phrase, entries in (synonyms or {}).items()
        }
        self._actions_by_phrase: dict[str, frozenset[ActionKind]] = {
            phrase.casefold(): frozenset(actions)
            for phrase, actions in (indicators or {}).items()
        }
        self._homophone_pairs = frozenset(frozenset(p) for p in (homophone_pairs or ()))
        self.wordlist: tuple[str, ...] = tuple(
            dict.fromkeys(filter(None, map(normalize_letters, wordlist or ())))
        )

    def actions(self, phrase: str) -> frozenset[ActionKind]:
        """The wordplay actions the phrase can signify; empty if none."""
        return self._actions_by_phrase.get(phrase.strip().casefold(), frozenset())

    def short_forms(self, phrase: str) -> tuple[str, ...]:
        """The normalised short forms the phrase abbreviates to, in file order."""
        return self._shorts_by_phrase.get(phrase.strip().casefold(), ())

    @classmethod
    def from_files(
        cls,
        *,
        abbreviations: Union[str, Path, None] = None,
        thesaurus: Union[str, Path, None] = None,
        indicators: Union[str, PathLike, Sequence[Union[str, PathLike]], None] = None,
        homophones: Union[str, Path, None] = None,
        wordlist: Union[str, Path, None] = None,
    ) -> "Lexicon":
        """Load each table from its file; ``indicators`` is one path or a list."""
        if isinstance(indicators, (str, PathLike)):
            indicators = [indicators]
        indicator_table = lexfiles.load_indicators(indicators) if indicators else {}
        return cls(
            abbreviations=lexfiles.load_abbreviations(abbreviations) if abbreviations else None,
            synonyms=lexfiles.load_thesaurus(thesaurus) if thesaurus else None,
            indicators=indicator_table,
            homophone_pairs=lexfiles.load_homophones(homophones) if homophones else None,
            wordlist=lexfiles.load_wordlist(wordlist) if wordlist else None,
        )

    # -- predicates ---------------------------------------------------------

    def is_synonym(
        self,
        phrase: str,
        candidate: str,
        pattern: Union[Pattern, str, None] = None,
    ) -> OracleVerdict:
        """Whether the clue phrase can reasonably stand for the candidate."""
        target = normalize_letters(candidate)
        fold = phrase.strip().casefold()
        entries = self._synonyms.get(fold)
        known = normalize_letters(phrase) == target and bool(target)
        if not known and entries is not None:
            known = any(normalize_letters(entry) == target for entry in entries)
        notes: list[str] = []
        if not known:
            if entries:
                notes.append(
                    f"{phrase!r} is not a recorded synonym of {candidate!r}; "
                    f"{phrase!r} can mean : {_quoted_list(entries)}"
                )
            else:
                notes.append(f"{phrase!r} is not in the thesaurus")
            return OracleVerdict(False, tuple(notes))
        if pattern is not None:
            try:
                parsed = pattern if isinstance(pattern, Pattern) else Pattern.parse(str(pattern))
            except PatternError:
                return OracleVerdict(
                    False, (f"{str(pattern)!r} is not a valid length pattern",)
                )
            if not pattern_matches(candidate, parsed):
                return OracleVerdict(
                    False,
                    (f"{candidate!r} does not fit the pattern {parsed.render()!r}",),
                )
        return OracleVerdict(True)

    def is_abbreviation(self, phrase: str, abbr: str) -> OracleVerdict:
        """Whether the clue phrase is a recognised short form of ``abbr``."""
        target = normalize_letters(abbr)
        shorts = self.short_forms(phrase)
        if target and target in shorts:
            return OracleVerdict(True)
        notes = []
        if shorts:
            notes.append(f"{phrase!r} abbreviates to : {_quoted_list(shorts)}")
        else:
            notes.append(f"{phrase!r} does not have a valid abbreviation")
        expansions = self._expansions.get(target)
        if expansions:
            notes.append(f"{abbr!r} is an abbreviation for : {_quoted_list(expansions)}")
        elif target:
            notes.append(f"{abbr!r} is not a recorded abbreviation")
        return OracleVerdict(False, tuple(notes))

    def action_type(self, phrase: str, action: ActionKind) -> OracleVerdict:
        """Whether the phrase can signify the given wordplay action."""
        actions = self.actions(phrase)
        if action in actions:
            return OracleVerdict(True)
        notes = []
        sub = self._matching_sub_phrase(phrase.strip().casefold(), action)
        if sub is not None:
            notes.append(
                f"{phrase!r} itself does not suggest Action.{action.name}, "
                f"but {sub!r} does"
            )
        for other in ActionKind:
            if other is not action and other in actions:
                notes.append(
                    f"{phrase!r} does not suggest Action.{action.name}, "
                    f"but maybe Action.{other.name}"
                )
        if not notes:
            notes.append(f"{phrase!r} does not suggest Action.{action.name}")
        return OracleVerdict(False, tuple(notes))

    def _matching_sub_phrase(self, fold: str, action: ActionKind) -> Optional[str]:
        words = fold.split()
        for width in range(len(words) - 1, 0, -1):
            for start in range(0, len(words) - width + 1):
                candidate = " ".join(words[start : start + width])
                if action in self.actions(candidate):
                    return candidate
        return None

    def is_anagram(self, letters: str, word: str) -> OracleVerdict:
        """Whether ``word`` rearranges exactly the letters of ``letters``."""
        a = normalize_letters(letters)
        b = normalize_letters(word)
        if sorted(a) == sorted(b) and a != b:
            return OracleVerdict(True)
        if a == b:
            if a:
                note = f"{a!r} and {b!r} are spelled identically, not rearranged"
            else:
                note = "no letters to rearrange"
            return OracleVerdict(False, (note,))
        return OracleVerdict(
            False,
            (f"{a!r} vs {b!r} letter difference : {_letter_difference(a, b)}",),
        )

    def is_homophone(self, phrase: str, candidate: str) -> OracleVerdict:
        """Whether the candidate sounds like the phrase when spoken."""
        a = normalize_letters(phrase)
        b = normalize_letters(candidate)
        pair = frozenset((phrase.strip().casefold(), candidate.strip().casefold()))
        if len(pair) == 2 and pair in self._homophone_pairs:
            return OracleVerdict(True)
        key_a, key_b = phonetic_key(phrase), phonetic_key(candidate)
        if key_a == key_b and a != b and a and b:
            return OracleVerdict(True)
        notes = [f"{phrase!r} sounds like {key_a}; {candidate!r} sounds like {key_b}"]
        if a == b:
            notes.append("a homophone needs a different spelling")
        return OracleVerdict(False, tuple(notes))


@lru_cache(maxsize=1)
def seed_lexicon() -> Lexicon:
    """The packaged lexicon covering the worked examples and fixtures."""
    return Lexicon.from_files(**lexfiles.seed_lexicon_files())
