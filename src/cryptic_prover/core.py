"""Shared vocabulary for cryptic crossword clues.

A cryptic clue has three printed parts: the surface text, an enumeration
pattern such as ``(8)`` or ``(3,4)`` describing the answer's letter groups,
and a direction (across or down).  Solvers additionally talk about the
*definition span*, the portion of the surface that defines the answer
directly; we mark it with braces, e.g. ``"{Offer} of support also
broadcast"``.

Everything downstream compares letters, so this module pins down two
normalisation rules used throughout the package:

* ``normalize_letters`` reduces any text to bare uppercase A-Z.  Accents are
  folded to ASCII where a decomposition exists, and every non-letter
  (spaces, hyphens, apostrophes, digits) is dropped.
* ``phonetic_key`` reduces a word to a crude consonant skeleton so that
  homophone pairs such as night/knight or pair/pare share a key.  The
  algorithm is deliberately small and deterministic; see the docstring.

``ActionKind`` enumerates the wordplay actions the rest of the package can
assert about: exactly the nine kinds a proof may claim an indicator word
signifies.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from enum import Enum, auto


class PatternError(ValueError):
    """Raised for enumeration strings that do not match ``d(,d|-d)*``."""


# Every ASCII character except A-Z, for deletion with ``str.translate``.
_ASCII_NON_CAPITALS = {code: None for code in range(128) if not 65 <= code <= 90}


def normalize_letters(text: str) -> str:
    """Return only the letters of ``text``, uppercased and accent-folded.

    Idempotent: applying it twice gives the same result as applying it once.
    ASCII text made only of letters, the common case of a word, is
    returned uppercased without a translation pass.
    """
    if text.isascii():
        # NFKD leaves ASCII unchanged and its only letters are a-z and A-Z,
        # so isalpha() holds exactly for a non-empty run of them.
        upper = text.upper()
        return upper if upper.isalpha() else upper.translate(_ASCII_NON_CAPITALS)
    return _normalize_unicode_letters(text)


def _normalize_unicode_letters(text: str) -> str:
    """The general path of ``normalize_letters``: NFKD, then keep A-Z."""
    decomposed = unicodedata.normalize("NFKD", text)
    kept: list[str] = []
    for ch in decomposed:
        if unicodedata.combining(ch):
            continue
        if not ch.isalpha():
            continue
        # Case-folding may expand a single char (ess-zed becomes SS).
        kept.extend(c for c in ch.upper() if "A" <= c <= "Z")
    return "".join(kept)


_LEADING_CLUSTERS = (("KN", "N"), ("GN", "N"), ("PN", "N"), ("WR", "R"), ("PS", "S"))


def phonetic_key(text: str) -> str:
    """Collapse ``text`` to a consonant skeleton for homophone matching.

    The key is computed on the normalised letters:

    1. silent leading clusters are reduced (KN/GN/PN -> N, WR -> R,
       PS -> S, leading X -> Z);
    2. non-leading GH is dropped, PH becomes F, CK/Q become K, X becomes
       KS, Z becomes S, and C is S before E/I/Y and K otherwise;
    3. the first letter survives (any leading vowel flattens to A) and all
       later vowels plus H, W and Y are dropped;
    4. runs of the same letter collapse to one.

    ``phonetic_key("night") == phonetic_key("knight") == "NT"``.
    """
    s = normalize_letters(text)
    if not s:
        return ""
    for cluster, rep in _LEADING_CLUSTERS:
        if s.startswith(cluster):
            s = rep + s[len(cluster):]
            break
    else:
        if s.startswith("X"):
            s = "Z" + s[1:]
    s = s[0] + s[1:].replace("GH", "")
    s = s.replace("PH", "F").replace("CK", "K")
    s = s.replace("Q", "K").replace("X", "KS").replace("Z", "S")
    hardened = []
    for i, ch in enumerate(s):
        if ch == "C":
            hardened.append("S" if i + 1 < len(s) and s[i + 1] in "EIY" else "K")
        else:
            hardened.append(ch)
    s = "".join(hardened)
    head = "A" if s[0] in "AEIOUY" else s[0]
    tail = [ch for ch in s[1:] if ch not in "AEIOUYHW"]
    key = [head]
    for ch in tail:
        if ch != key[-1]:
            key.append(ch)
    return "".join(key)


class Direction(Enum):
    ACROSS = auto()
    DOWN = auto()

    @classmethod
    def from_letter(cls, letter: str) -> "Direction":
        if letter == "A":
            return cls.ACROSS
        if letter == "D":
            return cls.DOWN
        raise ValueError(f"direction must be 'A' or 'D', got {letter!r}")


class ActionKind(Enum):
    """The wordplay actions an indicator word can signify."""

    ANAGRAM = auto()
    REMOVE_FIRST = auto()
    INITIALS = auto()
    REMOVE_LAST = auto()
    GOES_INSIDE = auto()
    GOES_OUTSIDE = auto()
    REVERSE = auto()
    SUBSTRING = auto()
    HOMOPHONE = auto()

    @classmethod
    def from_name(cls, name: str) -> "ActionKind":
        """Look up an action by name.  ``IS_OUTSIDE`` is accepted as an
        alias of ``GOES_OUTSIDE`` (it appears in the wild)."""
        if name == "IS_OUTSIDE":
            return cls.GOES_OUTSIDE
        try:
            return cls[name]
        except KeyError:
            raise ValueError(f"unknown action {name!r}") from None


_PATTERN_RE = re.compile(r"\d+(?:[,-]\d+)*")


@dataclass(frozen=True)
class Pattern:
    """An answer enumeration: letter-group sizes plus their separators.

    ``Pattern.parse("3,4")`` gives groups ``(3, 4)`` joined by a comma, the
    convention for multi-word answers; hyphens join hyphenated words.
    """

    groups: tuple[int, ...]
    separators: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.groups:
            raise PatternError("pattern needs at least one group")
        if any(g < 1 for g in self.groups):
            raise PatternError(f"group sizes must be positive: {self.groups}")
        if len(self.separators) != len(self.groups) - 1:
            raise PatternError(
                f"{len(self.groups)} groups need {len(self.groups) - 1} "
                f"separators, got {len(self.separators)}"
            )
        if any(sep not in (",", "-") for sep in self.separators):
            raise PatternError(f"separators must be ',' or '-': {self.separators}")

    @classmethod
    def parse(cls, text: str) -> "Pattern":
        compact = re.sub(r"\s+", "", text)
        if not _PATTERN_RE.fullmatch(compact):
            raise PatternError(f"bad enumeration {text!r}")
        parts = re.findall(r"\d+|[,-]", compact)
        groups = tuple(int(p) for p in parts[::2])
        separators = tuple(parts[1::2])
        return cls(groups, separators)

    def render(self) -> str:
        out = [str(self.groups[0])]
        for sep, group in zip(self.separators, self.groups[1:]):
            out.append(sep)
            out.append(str(group))
        return "".join(out)

    @property
    def total(self) -> int:
        return sum(self.groups)

    def __str__(self) -> str:
        return self.render()


def pattern_matches(candidate: str, pattern: Pattern) -> bool:
    """True when the candidate has the right number of letters.

    Only the total is checked: group boundaries of a multi-word answer are
    not recoverable from an unspaced candidate string.
    """
    return len(normalize_letters(candidate)) == pattern.total


@dataclass(frozen=True)
class DefinitionSpan:
    """A definition region of a clue surface, by character offsets."""

    start: int
    end: int
    text: str

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.end:
            raise ValueError(f"bad span offsets {self.start}..{self.end}")
        if len(self.text) != self.end - self.start:
            raise ValueError(
                f"span text {self.text!r} does not cover {self.start}..{self.end}"
            )


def _strip_braces(annotated: str) -> str:
    return annotated.replace("{", "").replace("}", "")


@dataclass(frozen=True)
class Clue:
    """One clue, optionally with its gold solving annotations.

    ``surface`` is the plain printed clue.  ``gold_definition`` is the same
    text with the definition span(s) wrapped in braces; ``gold_wordplay`` is
    a community-notation account of how the rest of the clue assembles the
    answer.
    """

    surface: str
    pattern: Pattern
    direction: Direction = Direction.ACROSS
    gold_answer: str | None = None
    gold_definition: str | None = None
    gold_wordplay: str | None = None
    clue_id: str = ""

    def __post_init__(self) -> None:
        if self.gold_answer is not None and not pattern_matches(
            self.gold_answer, self.pattern
        ):
            raise ValueError(
                f"answer {self.gold_answer!r} does not fit pattern {self.pattern}"
            )
        if self.gold_definition is not None:
            if _strip_braces(self.gold_definition) != self.surface:
                raise ValueError(
                    "definition annotation must be the surface plus braces: "
                    f"{self.gold_definition!r} vs {self.surface!r}"
                )
