"""Loaders for the line-oriented lexicon files, and the JSON-lines reader.

All files are UTF-8 text with ``#`` comment lines and blank lines ignored.
Two-column files are TAB-separated:

* ``abbreviations.tsv`` - ``short<TAB>phrase``
* ``thesaurus.tsv``     - ``phrase<TAB>candidate``
* ``indicators.tsv``    - ``ACTION<TAB>phrase`` (see ``ActionKind`` names)
* ``homophones.tsv``    - ``word<TAB>word``, unordered pairs
* ``wordlist.txt``      - one candidate per line

Matching is case-folded throughout, but the original display form of
abbreviation expansions is kept for hint rendering, in file order.

``json_lines`` reads every JSON-lines file the package writes (results,
transcripts) or takes in (pre-generated annotations).  Lines end at
``\n`` only: the writers keep non-ASCII text raw, so a string may hold
U+2028 or ``\x1c``, where ``str.splitlines`` would also break.
``split_lines`` applies the same rule to text: proof scripts, annotation
files, embedding files and the lexicon files above.

A line that cannot be read, bytes that are not UTF-8 included, raises an
``InputError`` whose message starts ``<path>: line <N>:``.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TypeVar

from cryptic_prover.core import ActionKind, normalize_letters


class InputError(ValueError):
    """A line of an input file that cannot be read; names the file and the line."""

    def __init__(self, path: str | Path, line: int, problem: str):
        super().__init__(f"{path}: line {line}: {problem}")
        self.path = path
        self.line = line


class LexiconFormatError(InputError):
    """A lexicon file line does not have the expected columns."""


class RecordError(InputError):
    """A JSON-lines record that cannot be read."""


T = TypeVar("T")


def seed_path(name: str) -> Path:
    """Path of a packaged seed data file, e.g. ``lexicon/thesaurus.tsv``."""
    return Path(str(resources.files("cryptic_prover").joinpath("data", name)))


def seed_lexicon_files() -> dict[str, Path | tuple[Path, ...]]:
    """The packaged lexicon files, keyed by the ``Lexicon.from_files`` argument each fills."""
    return {
        "abbreviations": seed_path("lexicon/abbreviations.tsv"),
        "thesaurus": seed_path("lexicon/thesaurus.tsv"),
        "indicators": (
            seed_path("lexicon/indicators.tsv"),
            seed_path("lexicon/indicators_extra.tsv"),
        ),
        "homophones": seed_path("lexicon/homophones.tsv"),
        "wordlist": seed_path("lexicon/wordlist.txt"),
    }


def json_lines(data: bytes, path: str | Path, read: Callable[[Any], T]) -> Iterator[T]:
    """``read(value)`` for the decoded value of each non-blank line of a JSON-lines file.

    A line that is not UTF-8 JSON, or whose value ``read`` rejects with
    KeyError, TypeError or ValueError, raises RecordError naming ``path``
    and the line number.
    """
    for number, raw in enumerate(data.split(b"\n"), start=1):
        try:
            line = raw.decode("utf-8")
            if not line.strip():
                continue
            value = read(json.loads(line))
        except (KeyError, TypeError, ValueError) as error:
            detail = f"missing key {error}" if isinstance(error, KeyError) else error
            raise RecordError(path, number, f"malformed record: {detail}") from None
        yield value


def split_lines(text: str) -> list[str]:
    """The lines of ``text``: split at ``\\n`` only, trailing ``\\r`` dropped."""
    return [line.rstrip("\r") for line in text.split("\n")]


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file, read without newline translation.

    Bytes that are not UTF-8 raise InputError naming their line.
    """
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as error:
        line = data.count(b"\n", 0, error.start) + 1
        problem = f"not UTF-8: byte {data[error.start]:#04x} ({error.reason})"
        raise InputError(path, line, problem) from None


def read_lines(path: str | Path) -> list[str]:
    """The ``split_lines`` of ``read_text(path)``."""
    return split_lines(read_text(path))


def _data_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    for lineno, line in enumerate(read_lines(path), start=1):
        if line.strip() and not line.lstrip().startswith("#"):
            yield lineno, line


def _two_columns(path: str | Path) -> Iterator[tuple[str, str]]:
    for lineno, line in _data_lines(path):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
            raise LexiconFormatError(path, lineno, "expected two TAB-separated columns")
        yield parts[0].strip(), parts[1].strip()


def _load_keyed(path: str | Path) -> dict[str, list[str]]:
    """Map each case-folded first column to its second columns in display form, file order."""
    table: dict[str, list[str]] = {}
    for key, entry in _two_columns(path):
        entries = table.setdefault(key.casefold(), [])
        if entry not in entries:
            entries.append(entry)
    return table


# Short form to its expansions; phrase to its candidates.
load_abbreviations = load_thesaurus = _load_keyed


def load_indicators(paths: Iterable[str | Path]) -> dict[str, frozenset[ActionKind]]:
    """Map case-folded signifier phrase to the set of actions it can signify."""
    table: dict[str, set[ActionKind]] = {}
    for path in paths:
        for lineno, line in _data_lines(path):
            parts = line.split("\t")
            if len(parts) != 2:
                raise LexiconFormatError(path, lineno, "expected ACTION<TAB>phrase")
            try:
                action = ActionKind.from_name(parts[0].strip())
            except ValueError as exc:
                raise LexiconFormatError(path, lineno, str(exc)) from None
            table.setdefault(parts[1].strip().casefold(), set()).add(action)
    return {phrase: frozenset(actions) for phrase, actions in table.items()}


def load_homophones(path: str | Path) -> set[frozenset[str]]:
    """Unordered homophone pairs, case-folded."""
    pairs = set()
    for left, right in _two_columns(path):
        pairs.add(frozenset((left.casefold(), right.casefold())))
    return pairs


def load_wordlist(path: str | Path) -> list[str]:
    """Candidate words as normalised letters, file order, duplicates dropped."""
    seen = set()
    words = []
    for _, line in _data_lines(path):
        word = normalize_letters(line)
        if word and word not in seen:
            seen.add(word)
            words.append(word)
    return words
